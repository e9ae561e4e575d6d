"""Cavity-QED figures of merit on spectra: the brightness spectral
profile beta(w_cav), weak-pump steady state, the modulated-detuning
envelope, its algebraic inversion, and the two estimators of the vacuum
Rabi coupling g.  The scalar Purcell bookkeeping is in the numpy-free
`cavity` module.

The incoherent emitter <-> cavity transfer rates are g**2 * S~(w_cav)
where S~ is the free-space spectrum convolved with the cavity Lorentzian
(see the spectra module); beta saturates as a Hill function of that rate.
The envelope of a detuning sweep, E_mod = L_kappa * beta, is
spectra.convolve_lorentzian(beta, kappa).
"""

import warnings

import numpy as np

from .optimize import _brent_bounded
from .units import _record

# exciton/photon populations above this are outside the weak-pump regime
WEAK_PUMP_THRESHOLD = 0.1

# range of couplings g (ueV) the envelope fit searches
_G_BOUNDS_UEV = (1e-2, 1e3)


class CouplingParams(_record("CouplingParams", "g_uev gamma_uev kappa_uev")):
    """Vacuum Rabi coupling g, emitter decay gamma and cavity width kappa,
    all in ueV.  The derived rate-per-spectral-density a = g**2/gamma is
    exposed as a property so it can never drift out of sync."""

    __slots__ = ()

    def __new__(cls, g_uev, gamma_uev, kappa_uev):
        if not g_uev >= 0:
            raise ValueError(f"coupling g must be >= 0, got {g_uev}")
        if not (gamma_uev > 0 and kappa_uev > 0):
            raise ValueError("gamma and kappa must be positive")
        return super().__new__(cls, g_uev, gamma_uev, kappa_uev)

    @property
    def a(self):
        """g**2/gamma in ueV (multiplies a per-ueV spectral density)."""
        return self.g_uev ** 2 / self.gamma_uev


class SteadyStateResult(_record("SteadyStateResult",
                                "exciton_population photon_number weak_pump")):
    __slots__ = ()


class EnvelopeFit(_record("EnvelopeFit", "g_uev a c residual iterations converged flag")):
    """Result of fitting the normalized modulation envelope."""

    __slots__ = ()

    def to_record(self):
        record = self._asdict()
        record["g_ueV"] = record.pop("g_uev")
        return record


def brightness_profile(coupling, s_emi_tilde, s_abs_tilde=None):
    """Emission probability into the cavity mode vs cavity tuning.

    beta(w) = (g**2 S~emi(w)/gamma) / (1 + g**2 S~emi(w)/gamma
                                         + g**2 S~abs(w)/kappa)

    Both spectra must share one grid and be cavity-filtered spectra of
    trapezoid area 2*pi.  Passing s_abs_tilde=None drops the re-absorption
    term, which is the right default when kappa >> gamma.  Values are
    dimensionless in [0, 1).
    """
    emi_rate = coupling.a * s_emi_tilde.values
    reabs = 0.0
    if s_abs_tilde is not None:
        if not np.array_equal(s_abs_tilde.energies, s_emi_tilde.energies):
            raise ValueError("emission and absorption spectra must share one grid")
        reabs = (coupling.g_uev ** 2 / coupling.kappa_uev) * s_abs_tilde.values
    beta = emi_rate / (1.0 + emi_rate + reabs)
    return s_emi_tilde._replace(values=beta)


def steady_state(pump_rate_uev, coupling, s_emi_tilde_at, s_abs_tilde_at=0.0):
    """Weak-pump steady state of the exciton/photon rate equations.

    Solves
        0 = -(gamma + g^2 Se) <x>  + g^2 Sa <n>  + p
        0 = -(kappa + g^2 Sa) <n>  + g^2 Se <x>
    for the exciton population <x> and photon number <n>, with Se/Sa the
    filtered spectra evaluated at the cavity energy (per ueV).  The
    photon loss rate in the second equation is kappa, which makes
    <n> = (p/kappa) * beta(w_cav) hold identically.

    Populations above WEAK_PUMP_THRESHOLD clear the weak-pump assumption;
    the values are still returned with weak_pump=False.
    """
    if not pump_rate_uev >= 0:
        raise ValueError(f"pump rate must be >= 0, got {pump_rate_uev}")
    if not (s_emi_tilde_at >= 0 and s_abs_tilde_at >= 0):
        raise ValueError("spectral densities must be >= 0")
    r_emi = coupling.g_uev ** 2 * s_emi_tilde_at
    r_abs = coupling.g_uev ** 2 * s_abs_tilde_at
    matrix = np.array([
        [coupling.gamma_uev + r_emi, -r_abs],
        [-r_emi, coupling.kappa_uev + r_abs],
    ])
    rhs = np.array([pump_rate_uev, 0.0])
    exciton, photon = np.linalg.solve(matrix, rhs)
    weak = max(exciton, photon) <= WEAK_PUMP_THRESHOLD
    return SteadyStateResult(float(exciton), float(photon), bool(weak))


def hill_envelope(a, s_dtilde_values, c=1.0):
    """Closed-form envelope c * a*S / (1 + a*S) for the values S of a
    doubly-filtered spectrum."""
    rate = a * np.asarray(s_dtilde_values, dtype=float)
    return c * rate / (1.0 + rate)


def invert_envelope(e_mod, a, c):
    """Recover the doubly-filtered spectrum from a modulation envelope.

    S = E / (a*c - a*E), the exact algebraic inverse of the closed-form
    envelope E = c * a*S/(1 + a*S).  Every envelope value must stay
    strictly below c.
    """
    if not (a > 0 and c > 0):
        raise ValueError("a and c must be positive")
    values = e_mod.values
    denom = a * (c - values)
    bad = denom <= 0
    if np.any(bad):
        first = e_mod.energies[np.argmax(bad)]
        raise ValueError(
            f"inversion denominator <= 0 at energy {first:g} ueV "
            f"(envelope reaches {values.max():g} >= c = {c:g})"
        )
    return e_mod._replace(values=values / denom)


def fit_g_from_envelope(e_mod_measured, s_dtilde, gamma_uev):
    """Extract the Rabi coupling g from a measured modulation envelope.

    `s_dtilde` is the free-space spectrum convolved twice with the cavity
    Lorentzian, on the envelope's grid.  The measured envelope is divided
    by its maximum, and the single parameter a = g**2/gamma of the
    peak-normalized closed-form envelope
    (1 + a*S_max)/(a*S_max) * a*S/(1 + a*S), which equals 1 at the
    spectral peak whatever a is, is fitted by bounded scalar
    minimization on log(a) over g in _G_BOUNDS_UEV (Brent's method,
    absolute tolerance 1e-6 in log(a), at most 200 evaluations).

    Returns an EnvelopeFit; `c` is the envelope scale consistent with the
    fitted a and the measured maximum, and `residual` is the root mean
    square difference of the normalized profiles.
    """
    if not np.array_equal(e_mod_measured.energies, s_dtilde.energies):
        raise ValueError("envelope and filtered spectrum must share one grid")
    if np.any(e_mod_measured.values < 0):
        raise ValueError("measured envelope must be nonnegative")

    measured_max = float(np.max(e_mod_measured.values))
    if measured_max <= 0:
        return EnvelopeFit(0.0, 0.0, 0.0, 0.0, 0, True, flag="below-noise-floor")

    s_values = s_dtilde.values
    s_max = float(np.max(s_values))
    if s_max <= 0:
        raise ValueError("spectrum has no positive values")
    target = e_mod_measured.values / measured_max

    log_lo = np.log(_G_BOUNDS_UEV[0] ** 2 / gamma_uev)
    log_hi = np.log(_G_BOUNDS_UEV[1] ** 2 / gamma_uev)

    def cost(log_a):
        a = np.exp(log_a)
        model = hill_envelope(a, s_values, c=(1.0 + a * s_max) / (a * s_max))
        return float(np.mean((model - target) ** 2))

    log_a, fun, iterations, converged = _brent_bounded(
        cost, float(log_lo), float(log_hi), xatol=1e-6, maxiter=200)
    a_fit = float(np.exp(log_a))
    g_fit = float(np.sqrt(a_fit * gamma_uev))
    rms = float(np.sqrt(fun))

    flag = ""
    if log_a <= log_lo + 1e-3:
        flag = "below-noise-floor"
    elif log_a >= log_hi - 1e-3:
        flag = "at-upper-bound"
    if not converged:
        flag = (flag + ";" if flag else "") + "not-converged"
        warnings.warn("envelope fit did not converge; returning best iterate")

    c = measured_max * (1.0 + a_fit * s_max) / (a_fit * s_max)
    return EnvelopeFit(g_fit, a_fit, c, rms, iterations, converged, flag)


def g_from_lifetime(gamma_star_uev, delta_gamma_uev, dw):
    """Rabi coupling from the Purcell lifetime change,
    g = sqrt(zpl_fwhm * delta_gamma / DW) / 2.

    Neglects spectral diffusion against pure dephasing inside the ZPL
    width, so it bounds g from below when fast diffusion broadens the
    line.
    """
    if not (gamma_star_uev > 0 and delta_gamma_uev > 0):
        raise ValueError("widths and rate changes must be positive")
    if not 0.0 < dw <= 1.0:
        raise ValueError(f"Debye-Waller factor must be in (0, 1], got {dw}")
    return 0.5 * np.sqrt(gamma_star_uev * delta_gamma_uev / dw)
