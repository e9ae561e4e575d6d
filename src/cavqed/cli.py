"""Command-line front end.

    pl <spectrum|purcell|brightness|lifetime|saturation|g2|budget>
       [--config FILE] [--fixture paper] [--out DIR] [--seed N] [--parallel N]

A run reads the --config file, builds the checked config with
`config.load`, which decides whether the config can run, computes
`(report, files)` with the command, which touches no file and only
reads the config, and writes them with `write_outputs`, all or nothing.
A checked config is read-only, and the paper fixture's is built once per
process and shared by every call of `main` that gives no --config.
--out, --seed and --parallel pass the same one-value check as a config
value; --parallel is accepted and ignored, as every sweep runs in one
thread.  Runs are deterministic for a given (config, seed): stochastic
sweeps draw from counter-based Philox streams keyed by (seed, task
index).

Exit codes: 0 success; 2 a `config.ConfigError`, whose message names the
config key, command-line flag or input file at fault; 3 a fit that did
not converge or has no counts to fit; 4 an I/O error.  Diagnostics,
Python warnings and command-line errors included, go to stderr as
single-line JSON; one that cannot be written is dropped, and the exit
code stays.  Any other exception, a library ValueError included, is a
bug and ends in a traceback.

Entry points: `run()` is the process entry, which the `pl` script and
`python -m cavqed.cli` call; `main(argv)` is the in-process API, and it
leaves the garbage collector as it found it.  `run` turns the cyclic
collector off for the command, numpy's import included, and freezes the
heap once main returns, so the interpreter's collections at exit skip
it: a process that is about to end does not walk its objects for
cycles.  It still exits through the interpreter's shutdown, not
`os._exit`, so atexit handlers, profilers, coverage and the flush of
the standard streams run.

Imports: this module loads only the standard library and the numpy-free
`config`; each function imports numpy and the physics modules it uses
in its own body, and `write_outputs` imports `numtext` for a CSV and
`svg` for an SVG.  So `budget`, `purcell` (the numpy-free `cavity` and a
4-point plot that `svg` draws in pure Python), `--help` and a run that
stops on a bad config load neither numpy nor `inspect`, and no command
loads `dataclasses`.
"""

import argparse
import functools
import gc
import itertools
import json
import os
import sys
import warnings
from pathlib import Path

from . import config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_IO = 4


class FitError(Exception):
    """A fit failed to converge or has no counts to fit (exit 3)."""


class InputError(Exception):
    """Missing, unreadable or empty input data (exit 4)."""


def _read_input(path, what):
    """Text of an input file, decoded as UTF-8 whatever the locale: RFC
    8259 requires it of JSON, and a CSV is ASCII.  A missing or empty
    file, or an empty path, is an InputError; bytes that are not UTF-8
    are a ConfigError naming the file and the offset of the first."""
    if not os.path.exists(path):
        raise InputError(f"{what} not found: {path!r}")
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        raise config.ConfigError(
            f"{path}: not UTF-8 text, {err.reason} at byte offset {err.start}") from err
    if not text.strip():
        raise InputError(f"{what} is empty: {path}")
    return text


def _load_csv(path, header, build):
    """`build(x, y)` of the two columns of an input CSV (see
    numtext.parse_two_column_csv).  `build` makes every library call that
    checks the file's grid or values, so that a ValueError it raises is a
    ConfigError naming the file."""
    from . import numtext

    text = _read_input(path, "input file")
    try:
        return build(*numtext.parse_two_column_csv(text, header))
    except ValueError as err:
        raise config.ConfigError(f"{path}: {err}") from err


def load_config(config_path, fixture):
    """config.load of the named fixture set and the --config file (None:
    none), whose absence or emptiness is an InputError."""
    return config.load(fixture, None if config_path is None
                       else _read_input(config_path, "config file"))


def _mode_kappa(cfg, energy):
    """(p, cavity linewidth) of cavity.mode_order, from its measured Q."""
    from . import cavity as cavity_mod

    row = config.mode_row(cfg)
    return row["p"], cavity_mod.kappa_from_q(energy, row["q_exp"])


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

def cmd_spectrum(cfg, seed):
    from . import spectra

    model = config.emitter_from_config(cfg)
    options = cfg["analysis"]["spectrum"]
    _, kappa = _mode_kappa(cfg, model.zpl_energy_uev)

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


def cmd_purcell(cfg, seed):
    from . import cavity as cavity_mod
    from .units import energy_from_wavelength

    # read in emitter_from_config's order, so that the first missing key
    # is named alike; load's checks cover the EmitterModel's
    em = cfg["emitter"]
    wavelength = em["wavelength_nm"]
    energy = energy_from_wavelength(wavelength)
    q_emitter = energy / em["zpl_fwhm_uev"]
    dw = em["debye_waller"]
    measured = cfg["measured"]
    cav = cfg["cavity"]

    modes = []
    for row in config.mode_rows(cfg):
        v_gaussian = cavity_mod.mode_volume_gaussian(
            wavelength, cav["refractive_index"], cav["radius_of_curvature_um"], row["p"])
        q_eff = cavity_mod.q_eff(row["q_exp"], q_emitter)
        f_p = cavity_mod.purcell_factor(cav["refractive_index"], row["v_eff_lambda3"], q_eff)
        ratios = cavity_mod.brightening_ratios(dw, f_p, em["eta_qy"])
        modes.append({
            "p": row["p"],
            "v_eff_lambda3_fixture": row["v_eff_lambda3"],
            "v_eff_lambda3_gaussian": v_gaussian,
            "q_exp": row["q_exp"],
            "q_th": row["q_th"],
            "q_eff": q_eff,
            "kappa_uev": cavity_mod.kappa_from_q(energy, row["q_exp"]),
            "internal_loss_ppm_per_pass": cavity_mod.internal_loss_from_q(
                row["q_exp"], row["q_th"], row["p"]),
            "f_p_theory": f_p,
            "flux_ratio_linear": ratios.flux_ratio_linear,
            "flux_ratio_sat": ratios.flux_ratio_sat,
            "decay_ratio": ratios.decay_ratio,
        })

    f_p_solved, eta_solved = cavity_mod.solve_fp_and_qy(
        measured["flux_ratio_sat"], measured["decay_ratio"], dw)
    report = {
        "debye_waller": dw,
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

    from . import cqed

    if g_uev > 0:
        values = cqed.hill_envelope(g_uev ** 2 / gamma_uev, s_dtilde.values)
        values = values / values.max()
    else:
        values = np.zeros_like(s_dtilde.values)
    if noise_frac > 0:
        values = np.maximum(values * (1.0 + noise_frac * rng.standard_normal(values.size)), 0.0)
    return s_dtilde._replace(values=values)


def cmd_brightness(cfg, seed):
    import numpy as np

    from . import cavity as cavity_mod
    from . import cqed, spectra
    from .units import rate_from_lifetime

    model = config.emitter_from_config(cfg)
    options = cfg["analysis"]["brightness"]
    gamma = rate_from_lifetime(cfg["emitter"]["lifetime_fs_ps"])

    if options["envelope_csv"]:
        # measured path: one envelope, one mode order, and the filtered
        # spectrum on the envelope's grid
        p, kappa = _mode_kappa(cfg, model.zpl_energy_uev)

        def filtered(energies, values):
            s_fs = spectra.build_fs_spectrum(model, energies)
            envelope = s_fs._replace(values=values)
            return envelope, spectra.convolve_lorentzian(
                spectra.convolve_lorentzian(s_fs, kappa), kappa)

        envelope, s_dtilde = _load_csv(options["envelope_csv"], spectra.SPECTRUM_HEADER,
                                       filtered)
        fit = cqed.fit_g_from_envelope(envelope, s_dtilde, gamma)
        _require_converged([fit], "envelope")
        report = {"mode": "measured", "p": p, "kappa_uev": kappa,
                  "fit": fit.to_record()}
        return report, {}

    rows = config.mode_rows(cfg)
    g_max = cfg["measured"]["g_spectral_max_uev"]
    noise_frac = options["noise_frac"]
    couplings = config.synthetic_couplings(g_max, [row["p"] for row in rows],
                                           [row["v_eff_lambda3"] for row in rows])
    grid_options = cfg["analysis"]["spectrum"]
    grid = spectra.energy_grid(model.zpl_energy_uev, grid_options["half_span_uev"],
                               grid_options["step_uev"])
    s_fs = spectra.build_fs_spectrum(model, grid)
    header = spectra.SPECTRUM_HEADER

    modes = []
    files = {}
    for index, (row, g_true) in enumerate(zip(rows, couplings)):
        p = row["p"]
        kappa = cavity_mod.kappa_from_q(model.zpl_energy_uev, row["q_exp"])
        s_tilde = spectra.convolve_lorentzian(s_fs, kappa)
        s_dtilde = spectra.convolve_lorentzian(s_tilde, kappa)
        envelope = _synthetic_envelope(
            s_dtilde, g_true, gamma, noise_frac, task_rng(seed, index))
        fit = cqed.fit_g_from_envelope(envelope, s_dtilde, gamma)
        coupling = cqed.CouplingParams(fit.g_uev, gamma, kappa)
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


def cmd_lifetime(cfg, seed):
    import numpy as np

    from . import dynamics
    from .units import rate_from_lifetime

    em = cfg["emitter"]
    options = cfg["analysis"]["lifetime"]
    irf = options["irf_fwhm_ps"]

    if options["fs_trace_csv"] is not None:
        # measured path: load has checked that both traces are given
        trace_fs, trace_cav = (
            _load_csv(options[key], "time_ps,counts",
                      lambda t, c: dynamics._decay_data(dynamics.DecayTrace(t, c, irf)))
            for key in ("fs_trace_csv", "cavity_trace_csv"))
    else:
        decay_ratio = cfg["measured"]["decay_ratio"]
        peak = options["peak_counts"]
        weights = em["decay_weights"]
        bin_ps = options["bin_ps"]
        gamma = rate_from_lifetime(em["lifetime_fs_ps"])
        before, after = config.lifetime_bins(em["lifetime_fs_ps"], bin_ps)
        time_grid = np.arange(-before, after + 1) * bin_ps

        def synthesize(index, ratio):
            clean = dynamics.simulate_decay(gamma, ratio, weights, em["tau_short_ps"], irf,
                                            time_grid)
            scale = peak / clean.counts.max()
            rng = task_rng(seed, index)
            noisy = rng.poisson(clean.counts * scale).astype(float)
            if not noisy.any():
                raise FitError("lifetime: a synthetic trace drew no counts to fit")
            return clean._replace(counts=noisy)

        trace_fs = synthesize(0, 1.0)
        trace_cav = synthesize(1, decay_ratio)

    fit_fs = dynamics.fit_biexponential(trace_fs)
    fit_cav = dynamics.fit_biexponential(trace_cav)
    _require_converged([fit_fs, fit_cav], "lifetime")

    # each trace is drawn at its own times: measured traces need not share a grid
    plotted = [(label, trace.time_ps, np.maximum(trace.counts, 1e-1))
               for label, trace in (("free space", trace_fs), ("cavity", trace_cav))]
    files = {"decay_fs.csv": ("time_ps,counts", trace_fs.time_ps, trace_fs.counts),
             "decay_cavity.csv": ("time_ps,counts", trace_cav.time_ps, trace_cav.counts),
             "lifetime.svg": (trace_fs.time_ps, plotted,
                              {"title": "Decay traces", "x_label": "time (ps)",
                               "y_label": "counts", "log_y": True})}
    report = {
        "free_space": fit_fs.to_record(),
        "cavity": fit_cav.to_record(),
        "lifetime_ratio": fit_fs.tau2_ps / fit_cav.tau2_ps,
    }
    return report, files


def cmd_saturation(cfg, seed):
    import numpy as np

    from . import dynamics

    options = cfg["analysis"]["saturation"]
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

    eta_coll = cfg["budget"]["overall_quoted"]["free_space"]
    f_rep = cfg["measured"]["f_rep_hz"]
    eta_qy = None
    if mode == "pulsed":
        # load checks the yield of the configured i_sat; the fitted one
        # follows the counts, those of a curve file included
        if fit.i_sat / (eta_coll * f_rep) == float("inf"):
            source = f"{options['curve_csv']}: " if options["curve_csv"] else ""
            raise config.ConfigError(
                f"{source}config keys budget.overall_quoted.free_space and measured.f_rep_hz: "
                "in pulsed mode, eta_qy = i_sat/(overall_quoted.free_space f_rep_hz) must be "
                f"finite for the fitted i_sat {fit.i_sat!r}, got {eta_coll!r} and {f_rep!r}")
        eta_qy = dynamics.qy_from_saturation(fit.i_sat, eta_coll, f_rep)

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


def cmd_g2(cfg, seed):
    import numpy as np

    from . import dynamics, spectra

    scheme = config.scheme_from_config(cfg)
    options = cfg["analysis"]["g2"]
    span = options["tau_span_ps"]
    tau = spectra.energy_grid(0.0, span, options["tau_step_ps"])

    g2 = dynamics.g2_correlation(scheme, tau, irf=cfg["g2_scheme"]["irf_fwhm_ps"])
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


def cmd_budget(cfg, seed):
    from . import budget as budget_mod

    measured = cfg["measured"]
    extractions = cfg["budget"]["extraction"]
    quoted = cfg["budget"]["overall_quoted"]
    chains = cfg["budget"]["chains"]
    exits = config.mode_row(cfg)

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

    # solve the in-cryostat optics, the stage that load has checked exactly
    # one cavity chain lists, from the measured fiber/planar exit ratio
    cryostat_solved, physical = budget_mod.calibrate_unknown_stage(
        chains["cavity_fiber"], chains["cavity_planar"],
        exits["p_fiber_pct"] / 100.0, exits["p_subs_pct"] / 100.0,
        measured["exit_ratio_fiber_over_planar"], "cryostat_optics")

    report = {
        "overall_efficiency": overall,
        "overall_efficiency_quoted": {name: quoted[name] for name in config.PATHS},
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


# numbers the calls of this process, so that two calls writing into one
# directory at once, from two threads or two processes, never share a
# temporary name
_WRITE_CALLS = itertools.count()


def write_outputs(out_dir, command, report, files):
    """Write a command's files and `<command>_report.json` into out_dir,
    creating it.  A ".csv" name takes a (header, x, y) table; any other
    name is an ".svg" one and takes an (x, series, labels) plot, `labels`
    being the keyword arguments of svg.write_line_svg.

    All or nothing: each file is written under a hidden temporary name in
    out_dir, `.<command>-<pid>-<call>-<name>`, and renamed into place once
    all are written and no directory is in the way.  A failure before the
    renames unlinks the temporary files and removes whatever directories
    this call made; a file it does not write is never touched.  A failure
    among the renames, in an out_dir that existed, is not undone: the
    files renamed before it stay."""
    out_dir = Path(out_dir)
    made = next((d for d in reversed([out_dir, *out_dir.parents]) if not d.exists()), None)
    names = [*files, f"{command}_report.json"]
    prefix = f".{command}-{os.getpid()}-{next(_WRITE_CALLS)}-"
    temps = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # each writer is imported before the first write: `svg` imported
        # after a large CSV was written raised the peak RSS of a process
        # running the seven commands by 0.5 to 0.9 MB
        if any(name.endswith(".csv") for name in files):
            from . import numtext
        if not all(name.endswith(".csv") for name in files):
            from . import svg
        for name, item in files.items():
            path = out_dir / (prefix + name)
            temps.append(path)
            if name.endswith(".csv"):
                numtext.write_two_column_csv(path, *item)
            else:
                x, series, labels = item
                svg.write_line_svg(path, x, series, **labels)
        temps.append(out_dir / (prefix + names[-1]))
        with open(temps[-1], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
        for name in names:
            if (out_dir / name).is_dir():
                raise IsADirectoryError(f"a directory is in the way: {out_dir / name}")
        for temp, name in zip(temps, names):
            os.replace(temp, out_dir / name)
    except BaseException:
        if made:
            import shutil

            shutil.rmtree(made, ignore_errors=True)
        else:
            for temp in temps:
                temp.unlink(missing_ok=True)
        raise


def _to_devnull(stream):
    """Point a closed stream's file descriptor at devnull: the line it
    failed to write stays buffered, and the interpreter's flush at exit
    would fail on it again and change the exit code."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _diagnostic(**payload):
    """Print one single-line JSON diagnostic on stderr; a diagnostic that
    cannot be written is dropped, leaving the exit code as it is."""
    try:
        print(json.dumps(payload, sort_keys=True), file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)


def _fail(command, code, error):
    """Print the JSON diagnostic of a failed run and return the exit code."""
    _diagnostic(command=command, exit_code=code, error=type(error).__name__,
                message=str(error))
    return code


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a ConfigError for a bad command line instead of printing
    the usage text and exiting."""

    def error(self, message):
        raise config.ConfigError(message)


@functools.cache
def _parser():
    """The command-line parser, built on the first `main` call of a
    process and reused: parsing reads it and writes only the namespace."""
    parser = _ArgumentParser(prog="pl", description="Cavity-QED analysis workflows")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--fixture", help="named fixture set to preload ('paper')")
    parser.add_argument("--out", default="pl_out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"seed for stochastic sweeps (default {config.DEFAULT_SEED})")
    parser.add_argument("--parallel", type=int, default=1,
                        help="accepted for compatibility and ignored: sweeps run in one thread")
    return parser


def main(argv=None):
    # argparse fills in the command word only once it has read a valid one
    args = argparse.Namespace(command=None)
    try:
        _parser().parse_args(argv, args)
    except config.ConfigError as err:
        return _fail(args.command, EXIT_CONFIG, err)
    out_dir = Path(args.out)

    def show_warning(message, category, *rest, **kwargs):
        _diagnostic(command=args.command, warning=category.__name__, message=str(message))

    try:
        with warnings.catch_warnings():
            warnings.showwarning = show_warning
            config.check_value("--out", args.out, config.PATH)
            config.check_value("--parallel", args.parallel, config.int_at_least(1))
            if args.seed is not None:
                config.check_value("--seed", args.seed, config.int_at_least(0))
            cfg = load_config(args.config, args.fixture)
            seed = args.seed if args.seed is not None else cfg["seed"]
            report, files = _COMMANDS[args.command](cfg, seed)
            write_outputs(out_dir, args.command, report, files)
            print(json.dumps({"command": args.command, "out_dir": str(out_dir),
                              "report": report}, sort_keys=True, allow_nan=False), flush=True)
    except config.ConfigError as err:
        return _fail(args.command, EXIT_CONFIG, err)
    except FitError as err:
        return _fail(args.command, EXIT_FIT, err)
    except BrokenPipeError as err:
        # stdout was closed before the report line; the files stay
        _to_devnull(sys.stdout)
        return _fail(args.command, EXIT_IO, err)
    except (InputError, OSError) as err:
        return _fail(args.command, EXIT_IO, err)
    return EXIT_OK


def run():
    """Run `main` on the command line of this process with the cyclic
    garbage collector off, then freeze the heap, and return main's exit
    code.  For a process that ends with the command: the collector stays
    off and the heap frozen (see the module docstring)."""
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
