"""Measured-style inputs for the reanalyze-measured workload, made with
plain numpy from the run seed.

The generator deliberately does not call cavqed: a later change to
cavqed's synthetic paths cannot change what this workload feeds it.  The
physics mirrors the paper's emitter (Lorentzian zero-phonon line plus a
one-phonon wing, cavity-filtered twice, saturated by a Hill envelope), a
biexponential decay convolved with a Gaussian instrument response, and a
pulsed saturation curve.  The generator's parameters are returned as the
truth the fits are checked against.
"""

import numpy as np

HBAR_UEV_PS = 658.2119569
HC_UEV_NM = 1.23984198e9
KB_UEV_PER_K = 86.17333262

WAVELENGTH_NM = 1275.0
ZPL_FWHM_UEV = 200.0
DEBYE_WALLER = 0.65
SIDEBAND_CUTOFF_UEV = 1000.0
TEMPERATURE_K = 4.2
LIFETIME_FS_PS = 256.0
IRF_FWHM_PS = 32.0
# measured cavity Q per longitudinal order (paper Table S1)
Q_EXP = {6: 11200.0, 7: 10500.0, 8: 9900.0, 9: 10400.0}
MODE_ORDERS = (6, 7, 8, 9)

GRID_STEP_UEV = 4.0
GRID_HALF_POINTS = 1500
TRACE_BIN_PS = 4.0


def _lorentzian(x, fwhm):
    return (2.0 / (np.pi * fwhm)) / (1.0 + (2.0 * x / fwhm) ** 2)


def _free_space_spectrum(detuning):
    zpl = _lorentzian(detuning, ZPL_FWHM_UEV)
    w = np.abs(detuning)
    j = (w / SIDEBAND_CUTOFF_UEV) * np.exp(-w / SIDEBAND_CUTOFF_UEV)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_bose = 1.0 / np.expm1(w / (KB_UEV_PER_K * TEMPERATURE_K))
        wing = np.where(detuning < 0, j * (n_bose + 1.0), j * n_bose)
    wing[detuning == 0] = 0.0
    values = (DEBYE_WALLER * zpl / np.trapezoid(zpl, detuning)
              + (1.0 - DEBYE_WALLER) * wing / np.trapezoid(wing, detuning))
    return values * (2.0 * np.pi / np.trapezoid(values, detuning))


def _convolve_same(values, kernel):
    """Linear convolution with an odd-length centered kernel, same length."""
    n, m = values.size, kernel.size
    size = 1 << int(np.ceil(np.log2(n + m - 1)))
    full = np.fft.irfft(np.fft.rfft(values, size) * np.fft.rfft(kernel, size), size)
    half = (m - 1) // 2
    return full[half:half + n]


def _cavity_filter(values, step, kappa):
    offsets = np.arange(-(values.size - 1), values.size) * step
    kernel = _lorentzian(offsets, kappa)
    kernel /= kernel.sum()
    return np.maximum(_convolve_same(values, kernel), 0.0)


def envelope(rng, mode_order, g_uev, noise_frac=0.01):
    """Modulation envelope (energies in ueV, raw counts) for coupling g."""
    e0 = HC_UEV_NM / WAVELENGTH_NM
    detuning = np.arange(-GRID_HALF_POINTS, GRID_HALF_POINTS + 1) * GRID_STEP_UEV
    kappa = e0 / Q_EXP[mode_order]
    s = _cavity_filter(_cavity_filter(_free_space_spectrum(detuning), GRID_STEP_UEV, kappa),
                       GRID_STEP_UEV, kappa)
    rate = (g_uev ** 2 * LIFETIME_FS_PS / HBAR_UEV_PS) * s
    values = rate / (1.0 + rate)
    values *= rng.uniform(500.0, 5000.0) / values.max()
    values = np.maximum(values * (1.0 + noise_frac * rng.standard_normal(values.size)), 0.0)
    return e0 + detuning, values


def decay_traces(rng, tau_fs_ps, decay_ratio, tau_short_ps=23.0, weights=(2.0, 1.0)):
    """Free-space and cavity decay traces on one time grid (Poisson counts)."""
    t = np.arange(-np.ceil(160.0 / TRACE_BIN_PS),
                  np.ceil(6.0 * tau_fs_ps / TRACE_BIN_PS) + 1) * TRACE_BIN_PS
    sigma = IRF_FWHM_PS / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    half = int(np.ceil(5.0 * sigma / TRACE_BIN_PS))
    irf = np.exp(-0.5 * (np.arange(-half, half + 1) * TRACE_BIN_PS / sigma) ** 2)
    irf /= irf.sum()
    traces = []
    for tau_long in (tau_fs_ps, tau_fs_ps / decay_ratio):
        tp = np.maximum(t, 0.0)
        clean = np.where(t >= 0, weights[0] * np.exp(-tp / tau_short_ps)
                         + weights[1] * np.exp(-tp / tau_long), 0.0)
        clean = np.maximum(_convolve_same(clean, irf), 0.0)
        peak = rng.uniform(3e4, 1e5)
        traces.append(rng.poisson(clean * (peak / clean.max())).astype(float))
    return t, traces[0], traces[1]


def saturation(rng, i_sat, p_sat, noise_frac=0.01, n_points=25):
    """Pulsed saturation curve I_sat * (1 - exp(-P/P_sat)) with noise."""
    powers = np.geomspace(p_sat / 30.0, 30.0 * p_sat, n_points)
    clean = i_sat * (1.0 - np.exp(-powers / p_sat))
    return powers, np.maximum(clean * (1.0 + noise_frac * rng.standard_normal(n_points)), 0.0)


def _csv(header, x, y):
    return header + "\n" + "".join(map("{:.17g},{:.17g}\n".format, x.tolist(), y.tolist()))


def generate_set(seed, index, n_sets):
    """Input set `index` of run `seed`: (files, config overlay, truth).

    The mode order of the envelope follows a seed-dependent permutation,
    so the sets of one run cover different orders and runs differ in
    which set gets which order.
    """
    orders = np.random.default_rng([seed, n_sets]).permutation(MODE_ORDERS)
    mode_order = int(orders[index % len(orders)])
    rng = np.random.default_rng([seed, index, 1])
    truth = {
        "mode_order": mode_order,
        "g_uev": float(rng.uniform(12.0, 30.0)),
        "tau_fs_ps": float(rng.uniform(230.0, 280.0)),
        "decay_ratio": float(rng.uniform(1.1, 1.35)),
        "i_sat": float(rng.uniform(1000.0, 3000.0)),
        "p_sat": float(rng.uniform(300.0, 3000.0)),
    }
    energies, env = envelope(rng, mode_order, truth["g_uev"])
    t, fs, cav = decay_traces(rng, truth["tau_fs_ps"], truth["decay_ratio"])
    powers, counts = saturation(rng, truth["i_sat"], truth["p_sat"])
    files = {
        "envelope.csv": _csv("energy_ueV,value", energies, env),
        "decay_fs.csv": _csv("time_ps,counts", t, fs),
        "decay_cavity.csv": _csv("time_ps,counts", t, cav),
        "saturation.csv": _csv("power,counts", powers, counts),
    }
    config = {
        "cavity": {"mode_order": mode_order},
        "analysis": {
            "brightness": {},
            "lifetime": {"irf_fwhm_ps": IRF_FWHM_PS},
            "saturation": {"mode": "pulsed"},
        },
    }
    return files, config, truth
