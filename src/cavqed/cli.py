"""Command-line front end.

    pl <spectrum|purcell|brightness|lifetime|saturation|g2|budget>
       [--config FILE] [--fixture paper] [--out DIR] [--seed N] [--parallel N]

Configuration is a single JSON document; `--fixture paper` preloads the
shipped default parameter set and fixture tables, with any config file
overlaid on top.  A run has three steps: `load_config` checks every value
of the merged config against its rule in CONFIG_KEYS (a failure exits 2,
naming the dotted key) and fills in the defaults, the command computes
`(report, files)` without touching the disk, and `write_outputs` writes
them.  --seed and --parallel pass the same one-value check as a config
value.  Every command is deterministic for a given (config, seed):
stochastic sweeps draw from counter-based Philox streams keyed by (seed,
task index).  --parallel is accepted and ignored: every sweep task takes
milliseconds, so it runs in one thread.

Exit codes: 0 success, 2 config/validation error, 3 fit non-convergence,
4 I/O error.  Diagnostics, Python warnings and command-line errors
included, go to stderr as single-line JSON.  A run that fails writes
nothing.

Imports: this module loads only the standard library and the numpy-free
`fixtures` and `budget`; each function imports numpy and the physics
modules it uses in its own body, so that `budget`, `--help` and a run that
stops on a bad config start without paying for numpy.
"""

import argparse
import json
import sys
import warnings
from pathlib import Path

from . import budget as budget_mod
from . import fixtures

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_IO = 4

DEFAULT_SEED = 12345

REQUIRED = object()


def _is_real(v):
    """True for a finite int or float; a bool is not a number."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def int_at_least(least):
    """The rule for an integer >= `least`; a bool is not an integer."""
    return f"an integer >= {least}", lambda v: type(v) is int and v >= least


# The rules a config value can have, each (what a value must be, test).
POSITIVE = ("a positive number", lambda v: _is_real(v) and v > 0)
NONNEGATIVE = ("a nonnegative number", lambda v: _is_real(v) and v >= 0)
UNIT = ("a number in (0, 1]", lambda v: _is_real(v) and 0 < v <= 1)
FRACTION = ("a number in [0, 1]", lambda v: _is_real(v) and 0 <= v <= 1)
BELOW_ONE = ("a number in [0, 1)", lambda v: _is_real(v) and 0 <= v < 1)
PATH = ("a nonempty path string", lambda v: type(v) is str and v != "")
PUMPING = ("'cw' or 'pulsed'", lambda v: v in ("cw", "pulsed"))
WEIGHTS = ("two nonnegative numbers with a positive sum", lambda v: type(v) in (list, tuple)
           and len(v) == 2 and all(_is_real(w) and w >= 0 for w in v) and sum(v) > 0)
MODE_ORDERS = ("a nonempty list of integers >= 1", lambda v: type(v) is list and v != []
               and all(type(p) is int and p >= 1 for p in v))

# Every config key a command reads, as (default, rule); a nested dict is
# a section.  load_config checks every value given against its rule.  A
# REQUIRED key has no default: reading it from a config that lacks it is
# a config error.  Where the default is None, null is also accepted and
# the one command that reads the key derives the value (cavity.mode_orders:
# every row of table S1; dw_window_uev: 3 ZPL widths) or, for an input
# file, takes the synthetic path.
CONFIG_KEYS = {
    "seed": (DEFAULT_SEED, int_at_least(0)),
    "emitter": {
        "wavelength_nm": (REQUIRED, POSITIVE), "zpl_fwhm_uev": (REQUIRED, POSITIVE),
        "debye_waller": (REQUIRED, UNIT),
        "sideband": {"exponent": (1.0, POSITIVE), "cutoff_uev": (1000.0, POSITIVE)},
        "temperature_k": (4.2, NONNEGATIVE), "lifetime_fs_ps": (REQUIRED, POSITIVE),
        "eta_qy": (0.01, FRACTION), "decay_weights": ((2.0, 1.0), WEIGHTS),
        "tau_short_ps": (23.0, POSITIVE)},
    "cavity": {"refractive_index": (1.0, POSITIVE), "radius_of_curvature_um": (10.0, POSITIVE),
               "mode_order": (6, int_at_least(1)), "mode_orders": (None, MODE_ORDERS)},
    "measured": {
        "flux_ratio_sat": (REQUIRED, POSITIVE), "decay_ratio": (REQUIRED, POSITIVE),
        "g_spectral_max_uev": (25.0, NONNEGATIVE), "f_rep_hz": (REQUIRED, POSITIVE),
        "ccd_rate_at_saturation_per_s": (REQUIRED, POSITIVE),
        "photons_into_fiber_per_ccd_count": (REQUIRED, POSITIVE),
        "detected_port_ratio_sspd_over_ccd": (REQUIRED, POSITIVE),
        "exit_ratio_fiber_over_planar": (REQUIRED, POSITIVE),
        "cryostat_optics_quoted": (REQUIRED, FRACTION)},
    "g2_scheme": {"pump_uev": (REQUIRED, POSITIVE), "k_shelve_uev": (0.0, NONNEGATIVE),
                  "k_deshelve_uev": (0.0, NONNEGATIVE), "background": (0.0, BELOW_ONE),
                  "irf_fwhm_ps": (32.0, NONNEGATIVE)},
    "analysis": {
        "spectrum": {"half_span_uev": (6000.0, POSITIVE), "step_uev": (4.0, POSITIVE),
                     "dw_window_uev": (None, POSITIVE)},
        "brightness": {"half_span_uev": (6000.0, POSITIVE), "step_uev": (4.0, POSITIVE),
                       "envelope_csv": (None, PATH), "noise_frac": (0.01, NONNEGATIVE)},
        "lifetime": {"irf_fwhm_ps": (32.0, NONNEGATIVE), "fs_trace_csv": (None, PATH),
                     "cavity_trace_csv": (REQUIRED, PATH), "peak_counts": (1e5, POSITIVE),
                     "bin_ps": (4.0, POSITIVE)},
        "saturation": {"mode": ("pulsed", PUMPING), "curve_csv": (None, PATH),
                       "i_sat": (1768.0, POSITIVE), "p_sat": (1000.0, POSITIVE),
                       "noise_frac": (0.01, NONNEGATIVE), "n_points": (25, int_at_least(3))},
        "g2": {"tau_span_ps": (60000.0, POSITIVE), "tau_step_ps": (4.0, POSITIVE)}},
}


class ConfigError(Exception):
    """Invalid configuration or input contents (exit 2)."""


class FitError(Exception):
    """A fit failed to converge (exit 3)."""


class InputError(Exception):
    """Missing, unreadable or empty input data (exit 4)."""


# ---------------------------------------------------------------------------
# configuration plumbing

class _Section(dict):
    """One checked config section; `prefix` is its dotted path plus "."."""

    def __init__(self, prefix):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, key):
        raise ConfigError(f"config key {self.prefix}{key} is required")


def _deep_merge(base, overlay):
    out = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and key in out and isinstance(out[key], dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _check_value(name, value, rule):
    """Raise a ConfigError naming `name` unless `value` passes `rule`."""
    what, test = rule
    if not test(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def _checked(tree, table=CONFIG_KEYS, prefix=""):
    """Copy of a config (sub)tree with every key checked against `table`
    and every absent default filled in.  Keys must be in the table,
    sections JSON objects, and values must pass their rule or be null
    where the default is None."""
    for key in tree:
        if key not in table:
            raise ConfigError(f"unknown config key {prefix}{key}")
    out = _Section(prefix)
    for key, entry in table.items():
        path = prefix + key
        if isinstance(entry, dict):
            value = tree[key] if key in tree else {}
            if not isinstance(value, dict):
                raise ConfigError(f"config section {path} must be a JSON object")
            out[key] = _checked(value, entry, path + ".")
            continue
        default, rule = entry
        if key in tree:
            value = tree[key]
            if value is not None or default is not None:
                _check_value(f"config key {path}", value, rule)
            out[key] = value
        elif default is not REQUIRED:
            out[key] = default
    return out


def _read_input(path, what):
    """Text of an input file; a missing or empty file is an InputError."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"{what} not found: {path}")
    text = path.read_text()
    if not text.strip():
        raise InputError(f"{what} is empty: {path}")
    return text


def _load_csv(path, header, build):
    """`build(x, y)` of the two columns of an input CSV (see
    spectra.parse_two_column_csv); a content error names the file."""
    from . import spectra

    text = _read_input(path, "input file")
    try:
        return build(*spectra.parse_two_column_csv(text, header))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def load_config(config_path, fixture):
    """The user config merged over the fixture, checked against
    CONFIG_KEYS, with every default filled in."""
    config = {}
    if fixture:
        if fixture != "paper":
            raise ConfigError(f"unknown fixture set {fixture!r} (only 'paper')")
        config = fixtures.paper_defaults()
    if config_path:
        text = _read_input(config_path, "config file")
        try:
            user = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        config = _deep_merge(config, user)
    if not config:
        raise ConfigError("no configuration given (use --config and/or --fixture paper)")
    return _checked(config)


def emitter_from_config(config):
    from . import spectra
    from .units import energy_from_wavelength, rate_from_lifetime

    em = config["emitter"]
    return spectra.EmitterModel(
        zpl_energy_uev=energy_from_wavelength(em["wavelength_nm"]),
        zpl_fwhm_uev=em["zpl_fwhm_uev"],
        debye_waller=em["debye_waller"],
        sideband=spectra.SidebandShape(em["sideband"]["exponent"],
                                       em["sideband"]["cutoff_uev"]),
        temperature_k=em["temperature_k"],
        gamma_fs_uev=rate_from_lifetime(em["lifetime_fs_ps"]),
        eta_qy=em["eta_qy"],
    )


def _mode_rows(config, key="mode_orders"):
    """[(p, fixture table S1 row)] for the mode orders of config key
    cavity.<key>: the list cavity.mode_orders (None: every row) or the one
    cavity.mode_order."""
    table = fixtures.load_table_s1()
    orders = config["cavity"][key]
    if key == "mode_order":
        orders = [orders]
    elif orders is None:
        orders = sorted(table)
    for p in orders:
        if p not in table:
            raise ConfigError(f"config key cavity.{key}: mode order {p!r} "
                              "is not in the fixture mode table")
    return [(p, table[p]) for p in orders]


def _mode_kappa(config, energy):
    """(p, cavity linewidth) of cavity.mode_order, from the fixture Q."""
    from . import cavity as cavity_mod

    [(p, row)] = _mode_rows(config, "mode_order")
    return p, cavity_mod.kappa_from_q(energy, row["q_exp"])


def task_rng(seed, index):
    """Counter-based per-task generator: identical streams regardless of
    execution order."""
    import numpy as np

    return np.random.Generator(np.random.Philox(seed=[seed, index]))


def _require_converged(results, what):
    bad = [r for r in results if not r.converged]
    if bad:
        raise FitError(f"{what}: {len(bad)} fit(s) did not converge")


# ---------------------------------------------------------------------------
# commands: each returns (report, files) and writes nothing.  `files` maps
# a ".csv" name to a (header, x, y) table and a ".svg" name to an
# (x, series, labels) plot; see write_outputs.

def cmd_spectrum(config, seed):
    from . import spectra

    model = emitter_from_config(config)
    options = config["analysis"]["spectrum"]
    _, kappa = _mode_kappa(config, model.zpl_energy_uev)

    grid = spectra.energy_grid(model.zpl_energy_uev, options["half_span_uev"],
                               options["step_uev"])
    s_fs = spectra.build_fs_spectrum(model, grid)
    s_abs = spectra.absorption_spectrum(s_fs, model)
    s_emi_t = spectra.convolve_lorentzian(s_fs, kappa)
    s_abs_t = spectra.convolve_lorentzian(s_abs, kappa)

    header = spectra.SPECTRUM_HEADER
    files = {"fs_spectrum.csv": (header, grid, s_fs.values),
             "s_emi_tilde.csv": (header, grid, s_emi_t.values),
             "s_abs_tilde.csv": (header, grid, s_abs_t.values),
             "spectrum.svg": (
                 grid - model.zpl_energy_uev,
                 [("free-space", s_fs.values), ("emission, filtered", s_emi_t.values),
                  ("absorption, filtered", s_abs_t.values)],
                 {"title": "Emitter spectra", "x_label": "detuning (ueV)",
                  "y_label": "density (1/ueV)"})}
    window = options["dw_window_uev"]
    report = {
        "kappa_uev": kappa,
        "fs_area": s_fs.area(),
        "fs_peak_per_uev": float(s_fs.values.max()),
        "debye_waller_measured": spectra.debye_waller(
            s_fs, window if window is not None else 3.0 * model.zpl_fwhm_uev),
        "files": list(files),
    }
    return report, files


def cmd_purcell(config, seed):
    from . import cavity as cavity_mod
    from . import cqed

    model = emitter_from_config(config)
    measured = config["measured"]
    cav = config["cavity"]
    energy = model.zpl_energy_uev
    q_emitter = energy / model.zpl_fwhm_uev

    modes = []
    for p, row in _mode_rows(config):
        geometry = cavity_mod.CavityGeometry(
            config["emitter"]["wavelength_nm"], cav["refractive_index"],
            cav["radius_of_curvature_um"], p)
        q_eff = cavity_mod.q_eff(row["q_exp"], q_emitter)
        f_p = cqed.purcell_factor(geometry.refractive_index, row["v_eff_lambda3"], q_eff)
        ratios = cqed.brightening_ratios(model.debye_waller, f_p, model.eta_qy)
        modes.append({
            "p": p,
            "v_eff_lambda3_fixture": row["v_eff_lambda3"],
            "v_eff_lambda3_gaussian": cavity_mod.mode_volume_gaussian(geometry),
            "q_exp": row["q_exp"],
            "q_th": row["q_th"],
            "q_eff": q_eff,
            "kappa_uev": cavity_mod.kappa_from_q(energy, row["q_exp"]),
            "internal_loss_ppm_per_pass": cavity_mod.internal_loss_from_q(
                row["q_exp"], row["q_th"], p),
            "f_p_theory": f_p,
            "flux_ratio_linear": ratios.flux_ratio_linear,
            "flux_ratio_sat": ratios.flux_ratio_sat,
            "decay_ratio": ratios.decay_ratio,
        })

    f_p_solved, eta_solved = cqed.solve_fp_and_qy(
        measured["flux_ratio_sat"], measured["decay_ratio"], model.debye_waller)
    report = {
        "debye_waller": model.debye_waller,
        "q_emitter": q_emitter,
        "modes": modes,
        "solved": {
            "flux_ratio_sat": measured["flux_ratio_sat"],
            "decay_ratio": measured["decay_ratio"],
            "f_p": f_p_solved,
            "eta_qy": eta_solved,
        },
    }
    files = {"purcell.svg": (
        [m["p"] for m in modes],
        [("V_eff fixture (lambda^3)", [m["v_eff_lambda3_fixture"] for m in modes]),
         ("V_eff Gaussian (lambda^3)", [m["v_eff_lambda3_gaussian"] for m in modes])],
        {"title": "Mode volume vs longitudinal order", "x_label": "p", "y_label": "V_eff"})}
    return report, files


def _synthetic_envelope(s_dtilde, g_uev, gamma_uev, noise_frac, rng):
    import numpy as np

    from . import cqed, spectra

    if g_uev > 0:
        values = cqed.hill_envelope(g_uev ** 2 / gamma_uev, s_dtilde.values)
        values = values / values.max()
    else:
        values = np.zeros_like(s_dtilde.values)
    if noise_frac > 0:
        values = np.maximum(values * (1.0 + noise_frac * rng.standard_normal(values.size)), 0.0)
    return spectra.Spectrum(s_dtilde.energies, values, spectra.RAW_COUNTS)


def cmd_brightness(config, seed):
    import numpy as np

    from . import cavity as cavity_mod
    from . import cqed, spectra

    model = emitter_from_config(config)
    options = config["analysis"]["brightness"]
    gamma = model.gamma_fs_uev

    if options["envelope_csv"]:
        # measured path: one envelope, one mode order
        p, kappa = _mode_kappa(config, model.zpl_energy_uev)
        envelope = _load_csv(options["envelope_csv"], spectra.SPECTRUM_HEADER,
                             spectra.Spectrum)
        s_fs = spectra.build_fs_spectrum(model, envelope.energies)
        s_dtilde = spectra.convolve_lorentzian(spectra.convolve_lorentzian(s_fs, kappa), kappa)
        fit = cqed.fit_g_from_envelope(envelope, s_dtilde, gamma)
        _require_converged([fit], "envelope")
        report = {"mode": "measured", "p": p, "kappa_uev": kappa,
                  "fit": fit.to_record()}
        return report, {}

    rows = _mode_rows(config)
    g_max = config["measured"]["g_spectral_max_uev"]
    noise_frac = options["noise_frac"]
    v_ref = min(rows, key=lambda item: item[0])[1]["v_eff_lambda3"]
    grid = spectra.energy_grid(model.zpl_energy_uev, options["half_span_uev"],
                               options["step_uev"])
    s_fs = spectra.build_fs_spectrum(model, grid)
    header = spectra.SPECTRUM_HEADER

    modes = []
    files = {}
    for index, (p, row) in enumerate(rows):
        kappa = cavity_mod.kappa_from_q(model.zpl_energy_uev, row["q_exp"])
        g_true = g_max * np.sqrt(v_ref / row["v_eff_lambda3"]) if g_max > 0 else 0.0
        s_tilde = spectra.convolve_lorentzian(s_fs, kappa)
        s_dtilde = spectra.convolve_lorentzian(s_tilde, kappa)
        envelope = _synthetic_envelope(
            s_dtilde, g_true, gamma, noise_frac, task_rng(seed, index))
        fit = cqed.fit_g_from_envelope(envelope, s_dtilde, gamma)
        coupling = cqed.CouplingParams(max(fit.g_uev, 0.0), gamma, kappa)
        beta = cqed.brightness_profile(coupling, s_tilde)
        files[f"envelope_p{p}.csv"] = (header, grid, envelope.values)
        files[f"beta_p{p}.csv"] = (header, grid, beta.values)
        if fit.g_uev > 0 and not fit.flag:
            # c was chosen so the measured maximum sits strictly below it;
            # the envelope inverts as-is
            recovered = cqed.invert_envelope(envelope, fit.a, fit.c)
            files[f"recovered_s_dtilde_p{p}.csv"] = (header, grid, recovered.values)
        modes.append({
            "p": p, "kappa_uev": kappa,
            "v_eff_lambda3": row["v_eff_lambda3"],
            "g_true_uev": g_true,
            "fit": fit.to_record(),
        })

    report = {"mode": "synthetic", "g_max_uev": g_max, "noise_frac": noise_frac,
              "modes": modes}
    fitted = [(m["v_eff_lambda3"], m["fit"]["g_ueV"]) for m in modes
              if not m["fit"]["flag"]]
    if len(fitted) >= 2:
        inv_v = np.array([1.0 / v for v, _ in fitted])
        g_sq = np.array([g ** 2 for _, g in fitted])
        slope, intercept = np.polyfit(inv_v, g_sq, 1)
        predicted = slope * inv_v + intercept
        ss_res = float(np.sum((g_sq - predicted) ** 2))
        ss_tot = float(np.sum((g_sq - g_sq.mean()) ** 2))
        report["linear_fit"] = {
            "slope": float(slope),
            "intercept": float(intercept),
            "r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
        }
        files["g2_vs_inverse_volume.svg"] = (
            inv_v, [("g^2 (ueV^2)", g_sq), ("linear fit", predicted)],
            {"title": "Coupling vs inverse mode volume",
             "x_label": "1/V_eff (1/lambda^3)", "y_label": "g^2"})
    return report, files


def cmd_lifetime(config, seed):
    import numpy as np

    from . import dynamics
    from .units import lifetime_from_rate

    model = emitter_from_config(config)
    em = config["emitter"]
    options = config["analysis"]["lifetime"]
    irf = options["irf_fwhm_ps"]

    if options["fs_trace_csv"]:
        def trace(t, c):
            return dynamics.DecayTrace(t, c, irf)

        trace_fs = _load_csv(options["fs_trace_csv"], "time_ps,counts", trace)
        trace_cav = _load_csv(options["cavity_trace_csv"], "time_ps,counts", trace)
    else:
        decay_ratio = config["measured"]["decay_ratio"]
        peak = options["peak_counts"]
        weights = tuple(em["decay_weights"])
        bin_ps = options["bin_ps"]
        tau_fs = lifetime_from_rate(model.gamma_fs_uev)
        time_grid = np.arange(-np.ceil(160.0 / bin_ps),
                              np.ceil(6.0 * tau_fs / bin_ps) + 1) * bin_ps

        def synthesize(index, ratio):
            clean = dynamics.simulate_decay(model.gamma_fs_uev, ratio, weights,
                                            em["tau_short_ps"], irf, time_grid)
            scale = peak / clean.counts.max()
            rng = task_rng(seed, index)
            noisy = rng.poisson(clean.counts * scale).astype(float)
            return dynamics.DecayTrace(clean.time_ps, noisy, irf)

        trace_fs = synthesize(0, 1.0)
        trace_cav = synthesize(1, decay_ratio)

    fit_fs = dynamics.fit_biexponential(trace_fs)
    fit_cav = dynamics.fit_biexponential(trace_cav)
    _require_converged([fit_fs, fit_cav], "lifetime")

    files = {"decay_fs.csv": ("time_ps,counts", trace_fs.time_ps, trace_fs.counts),
             "decay_cavity.csv": ("time_ps,counts", trace_cav.time_ps, trace_cav.counts),
             "lifetime.svg": (trace_fs.time_ps,
                              [("free space", np.maximum(trace_fs.counts, 1e-1)),
                               ("cavity", np.maximum(trace_cav.counts, 1e-1))],
                              {"title": "Decay traces", "x_label": "time (ps)",
                               "y_label": "counts", "log_y": True})}
    report = {
        "free_space": fit_fs.to_record(),
        "cavity": fit_cav.to_record(),
        "lifetime_ratio": fit_fs.tau2_ps / fit_cav.tau2_ps,
    }
    return report, files


def cmd_saturation(config, seed):
    import numpy as np

    from . import dynamics

    options = config["analysis"]["saturation"]
    mode = options["mode"]

    if options["curve_csv"]:
        powers, counts = _load_csv(options["curve_csv"], "power,counts",
                                   dynamics._saturation_data)
    else:
        p_sat = options["p_sat"]
        powers = np.geomspace(p_sat / 30.0, 30.0 * p_sat, options["n_points"])
        clean = dynamics.saturation_curve(powers, options["i_sat"], p_sat, mode)
        rng = task_rng(seed, 0)
        noise = options["noise_frac"] * rng.standard_normal(clean.size)
        counts = np.maximum(clean * (1.0 + noise), 0.0)

    fit = dynamics.fit_saturation(powers, counts, mode)
    _require_converged([fit], "saturation")

    eta_coll = fixtures.load_table_s3()["free_space"]["overall"]
    eta_qy = dynamics.qy_from_saturation(fit.i_sat, eta_coll, config["measured"]["f_rep_hz"]) \
        if mode == "pulsed" else None

    fitted = dynamics.saturation_curve(powers, fit.i_sat, fit.p_sat, mode)
    files = {"saturation.csv": ("power,counts", powers, counts),
             "saturation.svg": (powers, [("measured", counts), ("fit", fitted)],
                                {"title": f"Saturation ({mode})", "x_label": "power",
                                 "y_label": "counts"})}
    report = {
        "mode": mode,
        "i_sat": fit.i_sat, "p_sat": fit.p_sat,
        "sigma_i_sat": fit.sigma_i_sat, "sigma_p_sat": fit.sigma_p_sat,
        "eta_coll": eta_coll,
        "eta_qy": eta_qy,
    }
    return report, files


def cmd_g2(config, seed):
    import numpy as np

    from . import dynamics, spectra
    from .units import rate_from_lifetime

    g2cfg = config["g2_scheme"]
    scheme = dynamics.LevelScheme(
        pump_uev=g2cfg["pump_uev"],
        gamma_total_uev=rate_from_lifetime(config["emitter"]["lifetime_fs_ps"]),
        k_shelve_uev=g2cfg["k_shelve_uev"], k_deshelve_uev=g2cfg["k_deshelve_uev"],
        background=g2cfg["background"])
    options = config["analysis"]["g2"]
    span = options["tau_span_ps"]
    tau = spectra.energy_grid(0.0, span, options["tau_step_ps"])

    g2 = dynamics.g2_correlation(scheme, tau, irf=g2cfg["irf_fwhm_ps"])
    files = {"g2.csv": ("tau_ps,g2", tau, g2),
             "g2.svg": (tau, [("g2(tau)", g2)], {"title": "Intensity correlation (cw)",
                                                 "x_label": "tau (ps)", "y_label": "g2"})}

    izero = tau.size // 2
    fast, slow = dynamics.g2_eigenrates(scheme)
    bunch = (tau > 2.0 / fast) & (tau < span * 0.8) & (g2 > 1.0 + 1e-5)
    if bunch.sum() >= 5:
        coeffs = np.polyfit(tau[bunch], np.log(g2[bunch] - 1.0), 1)
        bunching_fit_ps = -1.0 / coeffs[0]
    else:
        bunching_fit_ps = None
    report = {
        "g2_zero_raw": float(g2[izero]),
        "g2_zero_corrected": float(dynamics.apply_background(0.0, scheme.background)),
        "background": scheme.background,
        "antibunching_time_ps": 1.0 / fast,
        "bunching_time_ps": 1.0 / slow if slow > 0 else None,
        "bunching_time_fit_ps": bunching_fit_ps,
    }
    return report, files


def cmd_budget(config, seed):
    measured = config["measured"]
    extractions, chains = fixtures.load_table_s2()
    summary = fixtures.load_table_s3()
    [(_, exits)] = _mode_rows(config, "mode_order")

    overall = {name: extractions[name] * budget_mod.chain_efficiency(chains[name])
               for name in chains}
    port_ratio = budget_mod.detected_port_ratio(
        chains["cavity_fiber"], chains["cavity_planar"],
        extractions["cavity_fiber"], extractions["cavity_planar"])
    ppc_planar = budget_mod.photons_per_count(chains["cavity_planar"])
    fiber_flux = budget_mod.fiber_flux_from_ccd(
        measured["ccd_rate_at_saturation_per_s"],
        measured["photons_into_fiber_per_ccd_count"])
    collection_ratio = budget_mod.detected_port_ratio(
        chains["free_space"], chains["cavity_planar"],
        extractions["free_space"], extractions["cavity_planar"])

    # solve the in-cryostat optics from the measured fiber/planar exit ratio
    cryostat_solved, physical = budget_mod.calibrate_unknown_stage(
        chains["cavity_fiber"], chains["cavity_planar"],
        exits["p_fiber_pct"] / 100.0, exits["p_subs_pct"] / 100.0,
        measured["exit_ratio_fiber_over_planar"], "cryostat_optics")

    report = {
        "overall_efficiency": overall,
        "overall_efficiency_quoted": {name: summary[name]["overall"] for name in summary},
        "photons_per_count_planar": ppc_planar,
        "detected_port_ratio_fiber_over_planar": port_ratio,
        "detected_port_ratio_measured": measured["detected_port_ratio_sspd_over_ccd"],
        "fiber_flux_per_s": fiber_flux,
        "collection_ratio_fs_over_cav": collection_ratio,
        "cryostat_optics_solved": cryostat_solved,
        "cryostat_optics_solved_physical": physical,
        "cryostat_optics_quoted": measured["cryostat_optics_quoted"],
        "exit_probabilities_pct": {"planar": exits["p_subs_pct"], "fiber": exits["p_fiber_pct"]},
    }
    return report, {}


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "spectrum": cmd_spectrum,
    "purcell": cmd_purcell,
    "brightness": cmd_brightness,
    "lifetime": cmd_lifetime,
    "saturation": cmd_saturation,
    "g2": cmd_g2,
    "budget": cmd_budget,
}


def write_outputs(out_dir, command, report, files):
    """Write a command's files and `<command>_report.json` into out_dir,
    creating it.  A ".csv" name takes a (header, x, y) table; any other
    name is an ".svg" one and takes an (x, series, labels) plot, `labels`
    being the keyword arguments of svg.write_line_svg."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, item in files.items():
        path = out_dir / name
        if name.endswith(".csv"):
            from . import spectra

            spectra.write_two_column_csv(path, *item)
        else:
            from . import svg

            x, series, labels = item
            svg.write_line_svg(path, x, series, **labels)
    with open(out_dir / f"{command}_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _diagnostic(**payload):
    """Print one single-line JSON diagnostic on stderr."""
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _fail(command, code, error):
    """Print the JSON diagnostic of a failed run and return the exit code."""
    _diagnostic(command=command, exit_code=code, error=type(error).__name__,
                message=str(error))
    return code


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a ConfigError for a bad command line instead of printing
    the usage text and exiting."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None):
    parser = _ArgumentParser(prog="pl", description="Cavity-QED analysis workflows")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--fixture", help="named fixture set to preload ('paper')")
    parser.add_argument("--out", default="pl_out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"seed for stochastic sweeps (default {DEFAULT_SEED})")
    parser.add_argument("--parallel", type=int, default=1,
                        help="accepted for compatibility and ignored: sweeps run in one thread")
    # argparse fills in the command word only once it has read a valid one
    args = argparse.Namespace(command=None)
    try:
        parser.parse_args(argv, args)
    except ConfigError as err:
        return _fail(args.command, EXIT_CONFIG, err)
    out_dir = Path(args.out)

    def show_warning(message, category, *rest, **kwargs):
        _diagnostic(command=args.command, warning=category.__name__, message=str(message))

    try:
        with warnings.catch_warnings():
            warnings.showwarning = show_warning
            _check_value("--parallel", args.parallel, int_at_least(1))
            if args.seed is not None:
                _check_value("--seed", args.seed, int_at_least(0))
            config = load_config(args.config, args.fixture)
            seed = args.seed if args.seed is not None else config["seed"]
            report, files = _COMMANDS[args.command](config, seed)
            write_outputs(out_dir, args.command, report, files)
    except (ConfigError, ValueError) as err:
        return _fail(args.command, EXIT_CONFIG, err)
    except FitError as err:
        return _fail(args.command, EXIT_FIT, err)
    except (InputError, OSError) as err:
        return _fail(args.command, EXIT_IO, err)

    print(json.dumps({"command": args.command, "out_dir": str(out_dir),
                      "report": report}, sort_keys=True, default=str))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
