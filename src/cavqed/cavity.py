"""Fabry-Perot microcavity modes and the Purcell bookkeeping: geometry,
Gaussian-beam mode volume, finesse and quality factor from round-trip
losses, internal-loss deduction from measured vs simulated Q,
loss-partition exit probabilities, the Purcell factor, and the
brightening and decay ratios with their inversion for (F_P, eta_QY).

The analytic mode volume ignores field penetration into the mirror
stacks (geometric length only), which is good to ~20% against full-field
simulations of short cavities; simulated values should be loaded as
fixtures where that matters.

All of it is scalar algebra on Python floats, and the module loads no
numpy.
"""

import math

from .units import _record


class LossBudget(_record("LossBudget", "t_flat t_fiber internal_per_pass spillout cladding")):
    """Per-round-trip losses of one cavity mode, in ppm.

    `internal_per_pass` is the scattering/absorption loss of the
    intracavity layer for a single pass; it is counted twice per round
    trip.  The transmissions `t_flat` and `t_fiber` deliver photons to a
    port; everything else is a pure loss.
    """

    __slots__ = ()

    def __new__(cls, t_flat=500.0, t_fiber=300.0, internal_per_pass=0.0, spillout=0.0,
                cladding=0.0):
        budget = super().__new__(cls, t_flat, t_fiber, internal_per_pass, spillout, cladding)
        for name, loss in zip(cls._fields, budget):
            if not loss >= 0:
                raise ValueError(f"loss channel {name} must be >= 0")
        if not budget.round_trip_ppm > 0:
            raise ValueError("total round-trip loss must be positive")
        return budget

    @property
    def round_trip_ppm(self):
        return (self.t_flat + self.t_fiber + 2.0 * self.internal_per_pass
                + self.spillout + self.cladding)


def mode_volume_gaussian(wavelength_nm, refractive_index, radius_of_curvature_um, mode_order):
    """Gaussian-beam effective mode volume, in units of (lambda/n)**3, of
    a plano-concave cavity of longitudinal order p (length L = p*lambda/2).

    V = (pi/4) * w0**2 * L with the standard plano-concave waist
    w0**2 = (lambda/(pi*n)) * sqrt(L*(R - L)).  Strictly increasing in
    the mode order while L < 3R/4.
    """
    if not wavelength_nm > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_nm}")
    if not refractive_index > 0:
        raise ValueError(f"refractive index must be positive, got {refractive_index}")
    if not mode_order >= 1:
        raise ValueError(f"mode order must be >= 1, got {mode_order}")
    length = mode_order * wavelength_nm * 1e-3 / 2.0
    if not length < radius_of_curvature_um:
        raise ValueError(f"unstable cavity: length {length:g} um >= radius of "
                         f"curvature {radius_of_curvature_um:g} um")
    lam_um = wavelength_nm * 1e-3
    n = refractive_index
    waist_sq = (lam_um / (math.pi * n)) * math.sqrt(length * (radius_of_curvature_um - length))
    volume_um3 = (math.pi / 4.0) * waist_sq * length
    return volume_um3 / (lam_um / n) ** 3


def q_from_losses(budget, mode_order):
    """(finesse, Q) from a round-trip loss budget: F = 2 pi / L_rt, Q = F p."""
    if mode_order < 1:
        raise ValueError(f"mode order must be >= 1, got {mode_order}")
    l_rt = budget.round_trip_ppm * 1e-6
    finesse = 2.0 * math.pi / l_rt
    return finesse, finesse * mode_order


def internal_loss_from_q(q_measured, q_theory, mode_order):
    """Per-pass internal loss (ppm) explaining a measured-vs-simulated Q gap.

    The excess round-trip loss is 2 pi p (1/Q_meas - 1/Q_th); half of it
    is assigned to each pass through the intracavity layer.
    """
    if not (q_measured > 0 and q_theory > 0):
        raise ValueError("quality factors must be positive")
    if q_measured >= q_theory:
        raise ValueError(
            f"Q_measured = {q_measured:g} >= Q_theory = {q_theory:g}: "
            "no internal loss can be deduced"
        )
    excess_round_trip = 2.0 * math.pi * mode_order * (1.0 / q_measured - 1.0 / q_theory)
    return 0.5 * excess_round_trip * 1e6


def exit_probabilities(budget):
    """Lossless partition of the round-trip budget: P_i = L_i / L_rt.

    Covers every channel (useful and pure), so the values sum to exactly
    one; the internal loss is counted twice, once per pass.  Real
    cavities add mode-matching factors on top of this; use simulated
    fixture values for quantitative port efficiencies.
    """
    channels = {
        "t_flat": budget.t_flat,
        "t_fiber": budget.t_fiber,
        "internal": 2.0 * budget.internal_per_pass,
        "spillout": budget.spillout,
        "cladding": budget.cladding,
    }
    total = budget.round_trip_ppm
    return {name: ppm / total for name, ppm in channels.items()}


def q_eff(q_cav, q_emitter):
    """Harmonic combination (1/Q_cav + 1/Q_em)**-1, never above either input."""
    if not (q_cav > 0 and q_emitter > 0):
        raise ValueError("quality factors must be positive")
    return 1.0 / (1.0 / q_cav + 1.0 / q_emitter)


def kappa_from_q(energy_uev, q):
    """Cavity linewidth kappa = E / Q in ueV."""
    if not (energy_uev > 0 and q > 0):
        raise ValueError("energy and Q must be positive")
    return energy_uev / q


class PurcellResult(_record("PurcellResult", "flux_ratio_linear flux_ratio_sat decay_ratio")):
    __slots__ = ()


def purcell_factor(refractive_index, v_eff_lambda3, q_eff):
    """Purcell factor (3/4 pi**2) * (lambda/n)**3 / V_eff * Q_eff.

    `v_eff_lambda3` is the mode volume in units of lambda**3 (as quoted
    for microcavity modes), so the wavelength cancels; the refractive
    index converts it to the (lambda/n)**3 units of the formula.
    """
    if not all(v > 0 for v in (refractive_index, v_eff_lambda3, q_eff)):
        raise ValueError("purcell_factor requires strictly positive inputs")
    v_in_lambda_over_n = v_eff_lambda3 * refractive_index ** 3
    return (3.0 / (4.0 * math.pi ** 2)) * q_eff / v_in_lambda_over_n


def brightening_ratios(dw, f_p, eta_qy):
    """Flux and decay-rate ratios of the cavity-coupled emitter vs free space.

    linear-regime flux ratio   DW*F_P / (1 + eta*DW*F_P)
    saturation flux ratio      DW*F_P
    decay-rate ratio           1 + eta*DW*F_P

    The free-space flux in the ratios is the total one, sidebands included.
    """
    if not 0.0 < dw <= 1.0:
        raise ValueError(f"Debye-Waller factor must be in (0, 1], got {dw}")
    if not f_p >= 0:
        raise ValueError(f"Purcell factor must be >= 0, got {f_p}")
    if not 0.0 <= eta_qy <= 1.0:
        raise ValueError(f"quantum yield must be in [0, 1], got {eta_qy}")
    enhancement = dw * f_p
    return PurcellResult(
        flux_ratio_linear=enhancement / (1.0 + eta_qy * enhancement),
        flux_ratio_sat=enhancement,
        decay_ratio=1.0 + eta_qy * enhancement,
    )


def solve_fp_and_qy(flux_ratio_sat, decay_ratio, dw):
    """Invert the brightening relations for (Purcell factor, quantum yield).

    F_P = flux_ratio_sat / DW and eta_QY = (decay_ratio - 1) / (DW * F_P),
    the exact inverse of brightening_ratios.
    """
    if not flux_ratio_sat > 0:
        raise ValueError(f"saturation flux ratio must be > 0, got {flux_ratio_sat}")
    if not decay_ratio >= 1.0:
        raise ValueError(
            f"decay ratio {decay_ratio} < 1: cavity coupling cannot slow the decay"
        )
    if not 0.0 < dw <= 1.0:
        raise ValueError(f"Debye-Waller factor must be in (0, 1], got {dw}")
    f_p = flux_ratio_sat / dw
    eta_qy = (decay_ratio - 1.0) / (dw * f_p)
    return f_p, eta_qy
