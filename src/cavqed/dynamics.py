"""Time-domain dynamics: photoluminescence decay traces with instrument
response, biexponential lifetime fits, saturation curves with quantum
yield extraction, and intensity correlations g2(tau) of a three-level
(bright/ground/shelving) emitter.

Rates are expressed in ueV (rate = HBAR_UEV_PS / lifetime_ps) and times
in ps, like everywhere else in the package.
"""

import warnings

import numpy as np

from .optimize import _trf_lower_bounded
from .spectra import _sampled, fft_convolver, uniform_step
from .units import HBAR_UEV_PS, _record

# relative tau1/tau2 separation below which a biexponential fit collapses
_DEGENERATE_TAU_RTOL = 0.05


class DecayTrace(_record("DecayTrace", "time_ps counts irf", derived="bin_ps")):
    """Time-binned photon counts with the instrument response that
    produced them: `irf` is its Gaussian FWHM in ps, 0 for none, and
    `bin_ps`, derived, the bin width."""

    __slots__ = ()

    def __new__(cls, time_ps, counts, irf):
        time_ps, counts, bin_ps = _sampled(time_ps, counts, "counts")
        return super().__new__(cls, time_ps, counts, irf, bin_ps)

    def _replace(self, /, **changes):
        """The trace with fields changed; new counts alone keep this grid
        and its bin width, and only the counts are checked."""
        if changes.keys() != {"counts"}:
            return super()._replace(**changes)
        counts = _sampled(self.time_ps, changes["counts"], "counts", self.bin_ps)[1]
        return super().__new__(type(self), self.time_ps, counts, self.irf, self.bin_ps)


class BiexpFit(_record("BiexpFit", "tau1_ps tau2_ps a1 a2 long_weight sigma_tau1_ps "
                                   "sigma_tau2_ps converged flag")):
    __slots__ = ()

    def to_record(self):
        return self._asdict()


class SaturationFit(_record("SaturationFit", "i_sat p_sat sigma_i_sat sigma_p_sat converged")):
    __slots__ = ()


class LevelScheme(_record("LevelScheme", "pump_uev gamma_total_uev k_shelve_uev "
                                         "k_deshelve_uev background")):
    """Three-level rate scheme: ground, bright excited state and a dark
    shelf.  All rates in ueV equivalents; `background` is the
    uncorrelated fraction of the detected counts."""

    __slots__ = ()

    def __new__(cls, pump_uev, gamma_total_uev, k_shelve_uev, k_deshelve_uev, background):
        rates = (pump_uev, gamma_total_uev, k_shelve_uev, k_deshelve_uev)
        for name, rate in zip(cls._fields, rates):
            if not rate >= 0:
                raise ValueError(f"{name} must be >= 0")
        if gamma_total_uev == 0:
            raise ValueError("the bright state must decay (gamma_total > 0)")
        if k_shelve_uev > 0 and k_deshelve_uev == 0:
            raise ValueError("shelving without deshelving has no steady state: "
                             "k_shelve_uev > 0 needs k_deshelve_uev > 0")
        if not 0.0 <= background < 1.0:
            raise ValueError(f"background fraction must be in [0, 1), got {background}")
        return super().__new__(cls, *rates, background)


def _irf_kernel(fwhm_ps, bin_ps, n_bins):
    """Unit-sum discrete Gaussian IRF kernel of FWHM `fwhm_ps` centered on
    zero delay; None for a zero FWHM."""
    if not fwhm_ps >= 0:
        raise ValueError(f"IRF FWHM must be >= 0 ps, got {fwhm_ps}")
    if fwhm_ps == 0:
        return None
    sigma = fwhm_ps / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    # 5 sigmas, at most the trace's length: an IRF too wide for a float
    # count of bins spans the trace
    half = int(min(np.ceil(5.0 * sigma / bin_ps), n_bins - 1))
    t = np.arange(-half, half + 1) * bin_ps
    kernel = np.exp(-0.5 * (t / sigma) ** 2)
    return kernel / kernel.sum()


def _irf_convolver(fwhm_ps, bin_ps, n_bins):
    """spectra.fft_convolver of the IRF kernel for `n_bins`-bin traces,
    built once per trace; None for a zero FWHM."""
    kernel = _irf_kernel(fwhm_ps, bin_ps, n_bins)
    return None if kernel is None else fft_convolver(kernel, n_bins)


def _convolve_centered(values, convolve):
    """Apply an IRF convolver (None for no IRF) to each row of `values`
    (..., n), preserving each row's total counts."""
    if convolve is None:
        return values
    out = convolve(values)
    # fold edge spillover back so the discrete sum is conserved; a row
    # whose convolved sum is not positive stays unscaled
    total = values.sum(axis=-1, keepdims=True)
    got = out.sum(axis=-1, keepdims=True)
    return out * np.divide(total, got, out=np.ones_like(got), where=got > 0)


def _decay_model(time_ps, convolve):
    """The IRF-convolved biexponential decay on one trace's time grid:
    returns model(tau1, tau2, a1, a2), with the grid's masks computed once.
    The parameters broadcast, so (k, 1) columns give k model rows."""
    after_zero = time_ps >= 0
    minus_t = -np.maximum(time_ps, 0.0)

    def model(tau1, tau2, a1, a2):
        decay = np.where(after_zero,
                         a1 * np.exp(minus_t / tau1) + a2 * np.exp(minus_t / tau2), 0.0)
        return _convolve_centered(decay, convolve)

    return model


def _columns(params):
    """The entries of the last axis of `params` (..., n), each as a
    (..., 1) column that broadcasts against a model's grid axis."""
    return [params[..., i, None] for i in range(params.shape[-1])]


def simulate_decay(gamma_fs_uev, decay_ratio, weights, tau_short_ps, irf, time_grid_ps):
    """Noiseless biexponential decay trace convolved with the IRF.

    The long component is the emitter lifetime HBAR/gamma_fs divided by
    `decay_ratio` (the cavity acceleration of the total decay); the short
    component `tau_short_ps` is untouched by the cavity.  `weights` are
    the (short, long) amplitudes at t = 0 and `irf` the Gaussian IRF FWHM
    in ps (0 for none).

    The time grid must extend to at least 5 long lifetimes.
    """
    if not (gamma_fs_uev > 0 and decay_ratio > 0 and tau_short_ps > 0):
        raise ValueError("rates, ratios and lifetimes must be positive")
    tau_long = HBAR_UEV_PS / gamma_fs_uev / decay_ratio
    time_grid_ps = np.asarray(time_grid_ps, dtype=float)
    if time_grid_ps[-1] < 5.0 * tau_long:
        raise ValueError(
            f"grid too short: ends at {time_grid_ps[-1]:g} ps, needs >= 5*tau_long "
            f"= {5.0 * tau_long:g} ps"
        )
    bin_ps = uniform_step(time_grid_ps)
    model = _decay_model(time_grid_ps, _irf_convolver(irf, bin_ps, time_grid_ps.size))
    a1, a2 = weights
    counts = model(tau_short_ps, tau_long, a1, a2)
    return DecayTrace(time_grid_ps, np.maximum(counts, 0.0), irf)


def fit_biexponential(trace):
    """Weighted least-squares biexponential fit of an IRF-convolved trace.

    Residuals carry Poisson weights 1/sqrt(max(counts, 1)).  If the two
    lifetimes converge to within 5% of each other the fit collapses to a
    monoexponential and is flagged; non-convergence of either stage
    returns the best iterate flagged "not-converged", after the collapse's
    flag and a ";", and that of the biexponential stage warns.
    """
    _decay_data(trace)
    t = trace.time_ps
    c = trace.counts
    bin_ps = trace.bin_ps
    model = _decay_model(t, _irf_convolver(trace.irf, bin_ps, t.size))
    sigma = np.sqrt(np.maximum(c, 1.0))

    x0 = _initial_biexp_guess(t, c, model)

    def residuals(params):
        return (model(*_columns(params)) - c) / sigma

    lower = [bin_ps / 10.0, bin_ps / 10.0, 0.0, 0.0]
    result = _trf_lower_bounded(residuals, x0, lower, ftol=1e-10, xtol=1e-10,
                                max_nfev=500 * 4)
    # tau1 is the shorter lifetime; its amplitude and sigma go with it
    order = [1, 0] if result.x[0] > result.x[1] else [0, 1]
    tau1, tau2 = result.x[order]
    a1, a2 = result.x[2:][order]

    flag = ""
    converged = bool(result.status > 0)
    if not converged:
        flag = "not-converged"
        warnings.warn("biexponential fit did not converge; returning best iterate")

    if abs(tau2 - tau1) < _DEGENERATE_TAU_RTOL * tau2:
        return _monoexp_collapse(c, sigma, model, tau2, a1 + a2, converged)

    sigma_tau1, sigma_tau2 = _parameter_sigmas(result)[order]
    long_weight = a2 * tau2 / (a1 * tau1 + a2 * tau2)
    return BiexpFit(float(tau1), float(tau2), float(a1), float(a2),
                    float(long_weight), sigma_tau1, sigma_tau2, converged, flag)


def _decay_data(trace):
    """`trace` itself, if a biexponential fit can take it: at least 50
    bins, a positive count and no count above 2**500, so that the fit's
    squared residuals stay finite."""
    if trace.time_ps.size < 50:
        raise ValueError("need at least 50 bins for a biexponential fit")
    peak = trace.counts.max()
    if peak <= 0:
        raise ValueError("trace has no counts")
    if peak > 2.0 ** 500:
        raise ValueError("counts must be at most 2**500")
    return trace


def _initial_biexp_guess(t, c, model):
    """Tail slope for the long lifetime, linear solve for amplitudes;
    `model` is the trace's _decay_model."""
    peak_idx = int(np.argmax(c))
    tail_start = peak_idx + int(0.3 * (t.size - peak_idx))
    tail = slice(tail_start, t.size)
    good = c[tail] > 0
    if good.sum() >= 5:
        slope = np.polyfit(t[tail][good], np.log(c[tail][good]), 1)[0]
        tau2_0 = -1.0 / slope if slope < 0 else (t[-1] - t[peak_idx]) / 3.0
    else:
        tau2_0 = (t[-1] - t[peak_idx]) / 3.0
    tau2_0 = max(tau2_0, 2.0 * (t[1] - t[0]))
    tau1_0 = tau2_0 / 8.0
    basis = np.column_stack([
        model(tau1_0, tau2_0, 1.0, 0.0),
        model(tau1_0, tau2_0, 0.0, 1.0),
    ])
    amps, *_ = np.linalg.lstsq(basis, c, rcond=None)
    a1_0, a2_0 = np.maximum(amps, c.max() * 1e-3)
    return [tau1_0, tau2_0, a1_0, a2_0]


def _monoexp_collapse(c, sigma, model, tau0, a0, converged):
    """The monoexponential fit of a degenerate biexponential one, which
    had `converged` or not."""

    def residuals(params):
        tau, a = _columns(params)
        return (model(tau, tau, 0.0, a) - c) / sigma

    result = _trf_lower_bounded(residuals, [tau0, a0], [1e-6, 0.0])
    tau, a = result.x
    sig = _parameter_sigmas(result)
    converged = converged and bool(result.status > 0)
    flag = "degenerate-collapsed-to-monoexponential" + ("" if converged else ";not-converged")
    return BiexpFit(float(tau), float(tau), 0.0, float(a), 1.0, sig[0], sig[0], converged, flag)


def _parameter_sigmas(result):
    """One-sigma estimates from the Jacobian at the optimum."""
    try:
        jtj = result.jac.T @ result.jac
        cov = np.linalg.pinv(jtj)
        dof = max(result.fun.size - result.x.size, 1)
        scale = 2.0 * result.cost / dof
        return np.sqrt(np.maximum(np.diag(cov) * scale, 0.0))
    except np.linalg.LinAlgError:
        return np.full(result.x.size, np.nan)


def saturation_curve(powers, i_sat, p_sat, mode):
    """Detected rate vs excitation power.

    cw:     I = I_sat * P / (P + P_sat)
    pulsed: I = I_sat * (1 - exp(-P / P_sat))

    Both are strictly increasing and approach I_sat from below.
    """
    powers = np.asarray(powers, dtype=float)
    if not np.all(powers >= 0):
        raise ValueError("powers must be >= 0")
    if not (i_sat > 0 and p_sat > 0):
        raise ValueError("I_sat and P_sat must be positive")
    _check_saturation_mode(mode)
    return _saturation_model(powers, i_sat, p_sat, mode)


def _check_saturation_mode(mode):
    if mode not in ("cw", "pulsed"):
        raise ValueError(f"mode must be 'cw' or 'pulsed', got {mode!r}")


def _saturation_model(powers, i_sat, p_sat, mode):
    """saturation_curve without its checks, for a fit's residuals; the
    parameters broadcast against `powers`."""
    if mode == "cw":
        return i_sat * powers / (powers + p_sat)
    return i_sat * (1.0 - np.exp(-powers / p_sat))


def _saturation_data(powers, counts):
    """Float (powers, counts) of a saturation curve that can be fitted:
    matching, >= 3 finite points, no negative power, a positive power and
    a positive count, and no count above 2**500, so that the fit's squared
    residuals stay finite."""
    powers = np.asarray(powers, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if powers.shape != counts.shape or powers.size < 3:
        raise ValueError("need matching power/count arrays with >= 3 points")
    if not (np.all(np.isfinite(powers)) and np.all(np.isfinite(counts))):
        raise ValueError("powers and counts must be finite")
    if not np.all(powers >= 0):
        raise ValueError("powers must be >= 0")
    if not np.any(powers > 0):
        raise ValueError("powers have no positive value to fit")
    if not np.any(counts > 0):
        raise ValueError("counts have no positive value to fit")
    if not np.all(counts <= 2.0 ** 500):
        raise ValueError("counts must be at most 2**500")
    return powers, counts


def fit_saturation(powers, counts, mode):
    """Least-squares fit of a saturation curve, returns SaturationFit."""
    powers, counts = _saturation_data(powers, counts)
    _check_saturation_mode(mode)
    i0 = float(counts.max()) * 1.2
    p0 = _median(powers)

    def residuals(params):
        i_sat, p_sat = _columns(params)
        return _saturation_model(powers, i_sat, p_sat, mode) - counts

    result = _trf_lower_bounded(residuals, [i0, p0], [0.0, 0.0])
    sig = _parameter_sigmas(result)
    return SaturationFit(float(result.x[0]), float(result.x[1]),
                         sig[0], sig[1], bool(result.status > 0))


def _median(values):
    """np.median of a finite 1-d array, bit for bit (the middle value, or
    the mean of the two middle ones), without the numpy.ma import that
    np.median costs a cold start."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2.0)


def qy_from_saturation(i_sat, eta_coll, f_rep_hz):
    """Quantum yield from a pulsed saturation plateau,
    eta_QY = I_sat / (eta_coll * f_rep).

    Warns (without raising) if the result exceeds one, which signals an
    inconsistent collection efficiency.
    """
    if not (i_sat > 0 and eta_coll > 0 and f_rep_hz > 0):
        raise ValueError("saturation rate, efficiency and repetition rate must be positive")
    eta_qy = i_sat / (eta_coll * f_rep_hz)
    if eta_qy > 1.0:
        warnings.warn(f"quantum yield {eta_qy:.3g} > 1 is unphysical; "
                      "check the collection efficiency")
    return eta_qy


def _rate_matrix_per_ps(scheme):
    """Population rate matrix d[g,e,d]/dt = M [g,e,d] in 1/ps."""
    pump = scheme.pump_uev / HBAR_UEV_PS
    gamma = scheme.gamma_total_uev / HBAR_UEV_PS
    k_s = scheme.k_shelve_uev / HBAR_UEV_PS
    k_d = scheme.k_deshelve_uev / HBAR_UEV_PS
    return np.array([
        [-pump, gamma, k_d],
        [pump, -(gamma + k_s), 0.0],
        [0.0, k_s, -k_d],
    ])


def g2_emitter_cw(scheme, tau_ps):
    """Source intensity correlation of the three-level scheme, no
    background, no IRF: excited-state population at |tau| after a reset
    to the ground state, normalized by its steady-state value.

    Computed by eigendecomposition of the 3x3 rate matrix, so it is the
    closed form g2 = 1 - (1+A) exp(-l1|t|) + A exp(-l2|t|) with the
    eigen-rates and amplitude of the scheme.
    """
    matrix = _rate_matrix_per_ps(scheme)
    eigvals, eigvecs = np.linalg.eig(matrix)
    coeffs = np.linalg.solve(eigvecs, np.array([1.0, 0.0, 0.0]))
    tau = np.abs(np.asarray(tau_ps, dtype=float))
    populations = (eigvecs[1, :] * coeffs) @ np.exp(np.outer(eigvals, tau))
    # the steady state is the span of the (possibly degenerate) zero
    # eigenvalues; a decoupled dark state contributes one of them
    zero = np.abs(eigvals) <= 1e-12 * np.max(np.abs(eigvals))
    p_e_ss = float(np.real(np.sum(eigvecs[1, zero] * coeffs[zero])))
    if p_e_ss <= 0:
        raise ValueError("scheme has no steady-state excited population")
    return np.maximum(np.real(populations) / p_e_ss, 0.0)


def g2_eigenrates(scheme):
    """(antibunching rate, bunching rate) in 1/ps from the rate matrix.

    The antibunching rate is the fastest decaying eigenmode; the
    bunching rate is the slow one (zero when there is no shelving).
    """
    eigvals = np.sort(np.real(np.linalg.eigvals(_rate_matrix_per_ps(scheme))))
    return -eigvals[0], -eigvals[1]


def apply_background(g2_values, background):
    """Uncorrelated-background transform (1-b)^2 g2 + b(2-b)."""
    b = background
    return (1.0 - b) ** 2 * np.asarray(g2_values, float) + b * (2.0 - b)


def _delay_grid(tau_grid_ps):
    """Float delays of a g2 grid: >= 3 points, uniform and symmetric about
    zero; returns (tau, bin_ps)."""
    tau = np.asarray(tau_grid_ps, dtype=float)
    if tau.size < 3:
        raise ValueError("tau grid needs at least 3 points")
    if abs(tau[0] + tau[-1]) > 1e-6 * max(abs(tau[0]), abs(tau[-1])):
        raise ValueError("tau grid must be symmetric about zero")
    return tau, uniform_step(tau)


def g2_correlation(scheme, tau_grid_ps, irf):
    """Measured cw g2(tau) of the three-level emitter: the closed-form
    correlation with the scheme's background fraction folded in,
    convolved with the (pair) timing response, a Gaussian of FWHM `irf`
    ps (0 for none)."""
    tau, bin_ps = _delay_grid(tau_grid_ps)
    kernel = _irf_kernel(irf, bin_ps, tau.size)
    g2 = apply_background(g2_emitter_cw(scheme, tau), scheme.background)
    if kernel is not None:
        # pad with the asymptotic value so the edge bins stay near 1
        half = (kernel.size - 1) // 2
        padded = np.pad(g2, half, mode="edge")
        g2 = fft_convolver(kernel, padded.size)(padded)[half:half + tau.size]
    return g2


def pulsed_g2_comb(scheme, tau_grid_ps, f_rep_hz, irf):
    """Measured pulsed g2(tau) of the three-level emitter: a comb of
    correlation peaks at multiples of 1/f_rep whose areas follow the cw
    correlation sampled at the peak centers (the zero-delay peak carries
    only the background coincidences), each peak shaped as the two-sided
    exponential of the bright-state lifetime, convolved with the timing
    response of FWHM `irf` ps (0 for none)."""
    tau, bin_ps = _delay_grid(tau_grid_ps)
    kernel = _irf_kernel(irf, bin_ps, tau.size)
    if not f_rep_hz > 0:
        raise ValueError("pulsed correlations need a positive f_rep_hz")
    period_ps = 1e12 / f_rep_hz
    tau_e = HBAR_UEV_PS / scheme.gamma_total_uev
    n_side = int(np.floor(tau[-1] / period_ps))
    centers = np.arange(-n_side, n_side + 1) * period_ps
    areas = apply_background(g2_emitter_cw(scheme, centers), scheme.background)
    areas[n_side] = apply_background(0.0, scheme.background)
    comb = np.zeros_like(tau)
    for center, area in zip(centers, areas):
        peak = np.exp(-np.abs(tau - center) / tau_e) / (2.0 * tau_e)
        comb += area * peak * period_ps
    if kernel is not None:
        comb = _convolve_centered(comb, fft_convolver(kernel, tau.size))
    return comb


def pulsed_g2_zero(tau_ps, g2_values, f_rep_hz):
    """Zero-delay peak area over the mean side-peak area, each integrated
    over a window of +-half the pulse period."""
    tau = np.asarray(tau_ps, dtype=float)
    values = np.asarray(g2_values, dtype=float)
    period_ps = 1e12 / f_rep_hz
    half = period_ps / 2.0

    def window_area(center):
        mask = np.abs(tau - center) <= half
        return float(np.trapezoid(np.where(mask, values, 0.0), tau))

    zero = window_area(0.0)
    n_side = int(np.floor((tau[-1] - half) / period_ps))
    if n_side < 1:
        raise ValueError("tau grid too short to hold a side peak")
    sides = [window_area(m * period_ps) for m in range(1, n_side + 1)]
    sides += [window_area(-m * period_ps) for m in range(1, n_side + 1)]
    return zero / float(np.mean(sides))
