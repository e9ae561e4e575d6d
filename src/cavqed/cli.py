"""Command-line front end.

    pl <spectrum|purcell|brightness|lifetime|saturation|g2|budget>
       [--config FILE] [--fixture paper] [--out DIR] [--seed N] [--parallel N]

Configuration is a single JSON document; `--fixture paper` preloads the
shipped default parameter set and fixture tables, with any config file
overlaid on top.  Every command is deterministic for a given (config,
seed): stochastic sweeps draw from counter-based Philox streams keyed by
(seed, task index).  --parallel is accepted and ignored: every sweep
task takes milliseconds, so it runs in one thread.

Exit codes: 0 success, 2 config/validation error, 3 fit non-convergence,
4 I/O error.  Diagnostics go to stderr as single-line JSON.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import budget as budget_mod
from . import cavity as cavity_mod
from . import cqed, dynamics, fixtures, spectra, svg
from .units import energy_from_wavelength, lifetime_from_rate, rate_from_lifetime

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_IO = 4

DEFAULT_SEED = 12345


class ConfigError(Exception):
    """Invalid configuration or input contents (exit 2)."""


class FitError(Exception):
    """A fit failed to converge (exit 3)."""


class InputError(Exception):
    """Missing, unreadable or empty input data (exit 4)."""


# ---------------------------------------------------------------------------
# configuration plumbing

def _deep_merge(base, overlay):
    out = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
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


def _load_csv(path, header):
    """The two columns of an input CSV (see spectra.parse_two_column_csv)."""
    return spectra.parse_two_column_csv(_read_input(path, "input file"), header, path)


def load_config(config_path, fixture):
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
    return config


def _section(config, name):
    section = config.get(name)
    if not isinstance(section, dict):
        raise ConfigError(f"config is missing the {name!r} section")
    return section


def emitter_from_config(config):
    em = _section(config, "emitter")
    try:
        sideband = em.get("sideband", {})
        return spectra.EmitterModel(
            zpl_energy_uev=energy_from_wavelength(em["wavelength_nm"]),
            zpl_fwhm_uev=em["zpl_fwhm_uev"],
            debye_waller=em["debye_waller"],
            sideband=spectra.SidebandShape(
                sideband.get("exponent", 1.0), sideband.get("cutoff_uev", 1000.0)),
            temperature_k=em.get("temperature_k", 4.2),
            gamma_fs_uev=rate_from_lifetime(em["lifetime_fs_ps"]),
            eta_qy=em.get("eta_qy", 0.01),
        )
    except KeyError as err:
        raise ConfigError(f"emitter config is missing {err}") from err
    except ValueError as err:
        raise ConfigError(f"emitter config invalid: {err}") from err


def geometry_from_config(config, mode_order=None):
    em = _section(config, "emitter")
    cav = _section(config, "cavity")
    try:
        return cavity_mod.CavityGeometry(
            wavelength_nm=em["wavelength_nm"],
            refractive_index=cav.get("refractive_index", 1.0),
            radius_of_curvature_um=cav.get("radius_of_curvature_um", 10.0),
            mode_order=mode_order if mode_order is not None else cav.get("mode_order", 6),
        )
    except KeyError as err:
        raise ConfigError(f"cavity config is missing {err}") from err
    except ValueError as err:
        raise ConfigError(f"cavity config invalid: {err}") from err


def scheme_from_config(config):
    g2 = _section(config, "g2_scheme")
    em = _section(config, "emitter")
    try:
        return dynamics.LevelScheme(
            pump_uev=g2["pump_uev"],
            gamma_total_uev=rate_from_lifetime(em["lifetime_fs_ps"]),
            k_shelve_uev=g2.get("k_shelve_uev", 0.0),
            k_deshelve_uev=g2.get("k_deshelve_uev", 0.0),
            background=g2.get("background", 0.0),
        )
    except KeyError as err:
        raise ConfigError(f"g2_scheme config is missing {err}") from err
    except ValueError as err:
        raise ConfigError(f"g2_scheme config invalid: {err}") from err


def _mode_kappa(config, mode_order):
    """Cavity linewidth for one longitudinal order, from the fixture Q."""
    table = fixtures.load_table_s1()
    if mode_order not in table:
        raise ConfigError(f"mode order {mode_order} not in the fixture mode table")
    energy = energy_from_wavelength(_section(config, "emitter")["wavelength_nm"])
    return cavity_mod.kappa_from_q(energy, table[mode_order]["q_exp"]), table[mode_order]


def task_rng(seed, index):
    """Counter-based per-task generator: identical streams regardless of
    execution order."""
    return np.random.Generator(np.random.Philox(seed=[seed, index]))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require_converged(results, what):
    bad = [r for r in results if not r.converged]
    if bad:
        raise FitError(f"{what}: {len(bad)} fit(s) did not converge")


# ---------------------------------------------------------------------------
# commands

def cmd_spectrum(config, out_dir, seed):
    model = emitter_from_config(config)
    options = config.get("analysis", {}).get("spectrum", {})
    half_span = options.get("half_span_uev", 6000.0)
    step = options.get("step_uev", 4.0)
    kappa, _ = _mode_kappa(config, _section(config, "cavity").get("mode_order", 6))

    grid = spectra.energy_grid(model.zpl_energy_uev, half_span, step)
    s_fs = spectra.build_fs_spectrum(model, grid)
    s_abs = spectra.absorption_spectrum(s_fs, model)
    s_emi_t = spectra.convolve_lorentzian(s_fs, kappa)
    s_abs_t = spectra.convolve_lorentzian(s_abs, kappa)

    spectra.save_spectrum_csv(s_fs, out_dir / "fs_spectrum.csv")
    spectra.save_spectrum_csv(s_emi_t, out_dir / "s_emi_tilde.csv")
    spectra.save_spectrum_csv(s_abs_t, out_dir / "s_abs_tilde.csv")
    detuning = grid - model.zpl_energy_uev
    svg.write_line_svg(
        out_dir / "spectrum.svg", detuning,
        [("free-space", s_fs.values), ("emission, filtered", s_emi_t.values),
         ("absorption, filtered", s_abs_t.values)],
        title="Emitter spectra", x_label="detuning (ueV)", y_label="density (1/ueV)")

    report = {
        "kappa_uev": kappa,
        "fs_area": s_fs.area(),
        "fs_peak_per_uev": float(s_fs.values.max()),
        "debye_waller_measured": spectra.debye_waller(s_fs, options.get(
            "dw_window_uev", 3.0 * model.zpl_fwhm_uev)),
        "files": ["fs_spectrum.csv", "s_emi_tilde.csv", "s_abs_tilde.csv", "spectrum.svg"],
    }
    _write_json(out_dir / "spectrum_report.json", report)
    return report


def cmd_purcell(config, out_dir, seed):
    model = emitter_from_config(config)
    measured = _section(config, "measured")
    cav = _section(config, "cavity")
    table = fixtures.load_table_s1()
    orders = cav.get("mode_orders", sorted(table))
    energy = model.zpl_energy_uev
    q_emitter = energy / model.zpl_fwhm_uev

    modes = []
    for p in orders:
        if p not in table:
            raise ConfigError(f"mode order {p} not in the fixture mode table")
        row = table[p]
        geometry = geometry_from_config(config, mode_order=p)
        q_eff = cavity_mod.q_eff(row["q_exp"], q_emitter)
        f_p = cqed.purcell_factor(geometry.wavelength_nm, geometry.refractive_index,
                                  row["v_eff_lambda3"], q_eff)
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
    _write_json(out_dir / "purcell_report.json", report)
    svg.write_line_svg(
        out_dir / "purcell.svg", [m["p"] for m in modes],
        [("V_eff fixture (lambda^3)", [m["v_eff_lambda3_fixture"] for m in modes]),
         ("V_eff Gaussian (lambda^3)", [m["v_eff_lambda3_gaussian"] for m in modes])],
        title="Mode volume vs longitudinal order", x_label="p", y_label="V_eff")
    return report


def _synthetic_envelope(s_tilde, g_uev, gamma_uev, kappa_uev, noise_frac, rng):
    s_dtilde = spectra.convolve_lorentzian(s_tilde, kappa_uev)
    if g_uev > 0:
        values = cqed.hill_envelope(g_uev ** 2 / gamma_uev, s_dtilde)
        values = values / values.max()
    else:
        values = np.zeros_like(s_tilde.values)
    if noise_frac > 0:
        values = np.maximum(values * (1.0 + noise_frac * rng.standard_normal(values.size)), 0.0)
    return spectra.Spectrum(s_tilde.energies, values, spectra.RAW_COUNTS)


def cmd_brightness(config, out_dir, seed):
    model = emitter_from_config(config)
    options = config.get("analysis", {}).get("brightness", {})
    gamma = model.gamma_fs_uev
    table = fixtures.load_table_s1()
    orders = _section(config, "cavity").get("mode_orders", sorted(table))
    half_span = options.get("half_span_uev", 6000.0)
    step = options.get("step_uev", 4.0)
    grid = spectra.energy_grid(model.zpl_energy_uev, half_span, step)

    if options.get("envelope_csv"):
        # measured path: one envelope, one mode order
        p = _section(config, "cavity").get("mode_order", 6)
        kappa, row = _mode_kappa(config, p)
        envelope = spectra.Spectrum(*_load_csv(options["envelope_csv"],
                                                spectra.SPECTRUM_HEADER))
        s_fs = spectra.build_fs_spectrum(model, envelope.energies)
        fit = cqed.fit_g_from_envelope(envelope, s_fs, kappa, gamma)
        if not fit.converged:
            raise FitError("envelope fit did not converge")
        report = {"mode": "measured", "p": p, "kappa_uev": kappa,
                  "fit": fit.to_record()}
        _write_json(out_dir / "brightness_report.json", report)
        return report

    g_max = options.get("g_max_uev", _section(config, "measured").get("g_spectral_max_uev", 25.0))
    noise_frac = options.get("noise_frac", 0.01)
    v_ref = table[min(orders)]["v_eff_lambda3"]
    s_fs = spectra.build_fs_spectrum(model, grid)

    modes = []
    for index, p in enumerate(orders):
        row = table[p]
        kappa = cavity_mod.kappa_from_q(model.zpl_energy_uev, row["q_exp"])
        g_true = g_max * np.sqrt(v_ref / row["v_eff_lambda3"]) if g_max > 0 else 0.0
        s_tilde = spectra.convolve_lorentzian(s_fs, kappa)
        envelope = _synthetic_envelope(
            s_tilde, g_true, gamma, kappa, noise_frac, task_rng(seed, index))
        fit = cqed.fit_g_from_envelope(envelope, s_fs, kappa, gamma)
        coupling = cqed.CouplingParams(max(fit.g_uev, 0.0), gamma, kappa)
        beta = cqed.brightness_profile(coupling, s_tilde)
        spectra.save_spectrum_csv(envelope, out_dir / f"envelope_p{p}.csv")
        spectra.save_spectrum_csv(beta, out_dir / f"beta_p{p}.csv")
        if fit.g_uev > 0 and not fit.flag:
            # c was chosen so the measured maximum sits strictly below it;
            # the envelope inverts as-is
            recovered = cqed.invert_envelope(envelope, fit.a, fit.c)
            spectra.save_spectrum_csv(recovered, out_dir / f"recovered_s_dtilde_p{p}.csv")
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
        svg.write_line_svg(out_dir / "g2_vs_inverse_volume.svg", inv_v,
                           [("g^2 (ueV^2)", g_sq), ("linear fit", predicted)],
                           title="Coupling vs inverse mode volume",
                           x_label="1/V_eff (1/lambda^3)", y_label="g^2")
    _write_json(out_dir / "brightness_report.json", report)
    return report


def cmd_lifetime(config, out_dir, seed):
    model = emitter_from_config(config)
    em = _section(config, "emitter")
    options = config.get("analysis", {}).get("lifetime", {})
    irf = options.get("irf_fwhm_ps", 32.0)

    if options.get("fs_trace_csv"):
        t_fs, c_fs = _load_csv(options["fs_trace_csv"], "time_ps,counts")
        t_cav, c_cav = _load_csv(options["cavity_trace_csv"], "time_ps,counts")
        trace_fs = dynamics.DecayTrace(t_fs, c_fs, irf)
        trace_cav = dynamics.DecayTrace(t_cav, c_cav, irf)
    else:
        decay_ratio = options.get("decay_ratio",
                                  _section(config, "measured").get("decay_ratio", 1.19))
        peak = options.get("peak_counts", 1e5)
        weights = tuple(em.get("decay_weights", (2.0, 1.0)))
        tau_short = em.get("tau_short_ps", 23.0)
        bin_ps = options.get("bin_ps", 4.0)
        tau_fs = lifetime_from_rate(model.gamma_fs_uev)
        time_grid = np.arange(-np.ceil(160.0 / bin_ps),
                              np.ceil(6.0 * tau_fs / bin_ps) + 1) * bin_ps

        def synthesize(index, ratio):
            clean = dynamics.simulate_decay(model.gamma_fs_uev, ratio, weights,
                                            tau_short, irf, time_grid)
            scale = peak / clean.counts.max()
            rng = task_rng(seed, index)
            noisy = rng.poisson(clean.counts * scale).astype(float)
            return dynamics.DecayTrace(clean.time_ps, noisy, irf)

        trace_fs = synthesize(0, 1.0)
        trace_cav = synthesize(1, decay_ratio)

    fit_fs = dynamics.fit_biexponential(trace_fs)
    fit_cav = dynamics.fit_biexponential(trace_cav)
    _require_converged([fit_fs, fit_cav], "lifetime")

    spectra.write_two_column_csv(out_dir / "decay_fs.csv", "time_ps,counts",
                                 trace_fs.time_ps, trace_fs.counts)
    spectra.write_two_column_csv(out_dir / "decay_cavity.csv", "time_ps,counts",
                                 trace_cav.time_ps, trace_cav.counts)
    svg.write_line_svg(out_dir / "lifetime.svg", trace_fs.time_ps,
                       [("free space", np.maximum(trace_fs.counts, 1e-1)),
                        ("cavity", np.maximum(trace_cav.counts, 1e-1))],
                       title="Decay traces", x_label="time (ps)", y_label="counts",
                       log_y=True)
    report = {
        "free_space": fit_fs.to_record(),
        "cavity": fit_cav.to_record(),
        "lifetime_ratio": fit_fs.tau2_ps / fit_cav.tau2_ps,
    }
    _write_json(out_dir / "lifetime_report.json", report)
    return report


def cmd_saturation(config, out_dir, seed):
    options = config.get("analysis", {}).get("saturation", {})
    measured = _section(config, "measured")
    mode = options.get("mode", "pulsed")

    if options.get("curve_csv"):
        powers, counts = _load_csv(options["curve_csv"], "power,counts")
    else:
        i_sat = options.get("i_sat", 1768.0)
        p_sat = options.get("p_sat", 1000.0)
        noise_frac = options.get("noise_frac", 0.01)
        powers = np.geomspace(p_sat / 30.0, 30.0 * p_sat, options.get("n_points", 25))
        clean = dynamics.saturation_curve(powers, i_sat, p_sat, mode)
        rng = task_rng(seed, 0)
        counts = np.maximum(clean * (1.0 + noise_frac * rng.standard_normal(clean.size)), 0.0)

    fit = dynamics.fit_saturation(powers, counts, mode)
    if not fit.converged:
        raise FitError("saturation fit did not converge")

    overall = fixtures.load_table_s3()
    eta_coll = overall["free_space"]["overall"]
    eta_qy = dynamics.qy_from_saturation(fit.i_sat, eta_coll, measured["f_rep_hz"]) \
        if mode == "pulsed" else None

    spectra.write_two_column_csv(out_dir / "saturation.csv", "power,counts", powers, counts)
    svg.write_line_svg(out_dir / "saturation.svg", powers,
                       [("measured", counts),
                        ("fit", dynamics.saturation_curve(powers, fit.i_sat, fit.p_sat, mode))],
                       title=f"Saturation ({mode})", x_label="power", y_label="counts")
    report = {
        "mode": mode,
        "i_sat": fit.i_sat, "p_sat": fit.p_sat,
        "sigma_i_sat": fit.sigma_i_sat, "sigma_p_sat": fit.sigma_p_sat,
        "eta_coll": eta_coll,
        "eta_qy": eta_qy,
    }
    _write_json(out_dir / "saturation_report.json", report)
    return report


def cmd_g2(config, out_dir, seed):
    scheme = scheme_from_config(config)
    g2cfg = _section(config, "g2_scheme")
    options = config.get("analysis", {}).get("g2", {})
    irf = g2cfg.get("irf_fwhm_ps", 32.0)
    span = options.get("tau_span_ps", 60000.0)
    step = options.get("tau_step_ps", 4.0)
    tau = spectra.energy_grid(0.0, span, step)

    g2 = dynamics.g2_correlation(scheme, "cw", tau, irf=irf)
    spectra.write_two_column_csv(out_dir / "g2.csv", "tau_ps,g2", tau, g2)
    svg.write_line_svg(out_dir / "g2.svg", tau, [("g2(tau)", g2)],
                       title="Intensity correlation (cw)", x_label="tau (ps)", y_label="g2")

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
    _write_json(out_dir / "g2_report.json", report)
    return report


def cmd_budget(config, out_dir, seed):
    measured = _section(config, "measured")
    extractions, chains = fixtures.load_table_s2()
    summary = fixtures.load_table_s3()
    mode_table = fixtures.load_table_s1()
    p = _section(config, "cavity").get("mode_order", 6)
    exits = mode_table[p]

    overall = {name: extractions[name] * budget_mod.chain_efficiency(chains[name])
               for name in chains}
    port_ratio = budget_mod.detected_port_ratio(
        chains["cavity_fiber"], chains["cavity_planar"],
        extractions["cavity_fiber"], extractions["cavity_planar"])
    ppc_planar = budget_mod.photons_per_count(chains["cavity_planar"])
    fiber_flux = budget_mod.fiber_flux_from_ccd(
        measured["ccd_rate_at_saturation_per_s"],
        measured["photons_into_fiber_per_ccd_count"])
    collection_ratio = budget_mod.collection_ratio_fs_over_cav(
        chains["free_space"], chains["cavity_planar"],
        extractions["free_space"], extractions["cavity_planar"])

    # solve the in-cryostat optics from the measured fiber/planar exit ratio
    planar_unknown = budget_mod.EfficiencyChain(
        "cavity_planar",
        tuple(budget_mod.Stage(s.name, None if s.name == "cryostat_optics" else s.efficiency)
              for s in chains["cavity_planar"].stages))
    cryostat_solved, physical = budget_mod.calibrate_unknown_stage(
        chains["cavity_fiber"], planar_unknown,
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
    _write_json(out_dir / "budget_report.json", report)
    return report


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


def _diagnostic(command, code, error):
    payload = {"command": command, "exit_code": code,
               "error": type(error).__name__, "message": str(error)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pl", description="Cavity-QED analysis workflows")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--fixture", help="named fixture set to preload ('paper')")
    parser.add_argument("--out", default="pl_out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"seed for stochastic sweeps (default {DEFAULT_SEED})")
    parser.add_argument("--parallel", type=int, default=1,
                        help="accepted for compatibility and ignored: sweeps run in one thread")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, args.fixture)
        seed = args.seed if args.seed is not None else config.get("seed", DEFAULT_SEED)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = _COMMANDS[args.command](config, out_dir, seed)
    except ConfigError as err:
        _diagnostic(args.command, EXIT_CONFIG, err)
        return EXIT_CONFIG
    except FitError as err:
        _diagnostic(args.command, EXIT_FIT, err)
        return EXIT_FIT
    except InputError as err:
        _diagnostic(args.command, EXIT_IO, err)
        return EXIT_IO
    except (KeyError, ValueError, TypeError) as err:
        _diagnostic(args.command, EXIT_CONFIG, err)
        return EXIT_CONFIG
    except OSError as err:
        _diagnostic(args.command, EXIT_IO, err)
        return EXIT_IO

    print(json.dumps({"command": args.command, "out_dir": str(out_dir),
                      "report": report}, sort_keys=True, default=str))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
