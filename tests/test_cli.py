import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cavqed
from cavqed import dynamics, fixtures, spectra
from cavqed.cli import (
    CONFIG_KEYS,
    DEFAULT_SEED,
    EXIT_CONFIG,
    EXIT_FIT,
    EXIT_IO,
    EXIT_OK,
    REQUIRED,
    _COMMANDS,
    load_config,
    main,
)


def run(tmp_path, command, *extra, config=None, name="run"):
    out = tmp_path / name
    argv = [command, "--fixture", "paper", "--out", str(out)]
    if config is not None:
        # a str is written as-is, for JSON that json.dumps would not produce
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(cfg_path)]
    argv += list(extra)
    code = main(argv)
    return code, out


def read_report(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


class TestSpectrumCommand:
    def test_writes_files_with_2pi_area(self, tmp_path):
        code, out = run(tmp_path, "spectrum")
        assert code == EXIT_OK
        for name in ("fs_spectrum.csv", "s_emi_tilde.csv", "s_abs_tilde.csv", "spectrum.svg"):
            assert (out / name).exists()
        energies, values = spectra.parse_two_column_csv((out / "fs_spectrum.csv").read_text(),
                                                        spectra.SPECTRUM_HEADER)
        assert np.trapezoid(values, energies) == pytest.approx(2.0 * np.pi, rel=1e-4)
        # the plot is well-formed XML with one polyline per series
        import xml.etree.ElementTree as ET
        root = ET.parse(out / "spectrum.svg").getroot()
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3

    def test_pure_zpl_config_single_peak(self, tmp_path):
        code, out = run(tmp_path, "spectrum",
                        config={"emitter": {"debye_waller": 1.0, "temperature_k": 0.0}})
        assert code == EXIT_OK
        _, values = spectra.parse_two_column_csv((out / "fs_spectrum.csv").read_text(),
                                                 spectra.SPECTRUM_HEADER)
        interior = values[1:-1]
        peaks = np.sum((interior > values[:-2]) & (interior > values[2:]))
        assert peaks == 1

    def test_deterministic_rerun(self, tmp_path):
        _, out_a = run(tmp_path, "spectrum", name="a")
        _, out_b = run(tmp_path, "spectrum", name="b")
        for name in ("fs_spectrum.csv", "s_emi_tilde.csv", "s_abs_tilde.csv",
                     "spectrum.svg", "spectrum_report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestPurcellCommand:
    def test_paper_closure_in_report(self, tmp_path):
        code, out = run(tmp_path, "purcell")
        assert code == EXIT_OK
        report = read_report(out, "purcell_report.json")
        assert report["solved"]["f_p"] == pytest.approx(29.2, abs=0.1)
        assert report["solved"]["eta_qy"] == pytest.approx(0.010, abs=5e-4)

    def test_zero_yield_config(self, tmp_path):
        code, out = run(tmp_path, "purcell", config={"emitter": {"eta_qy": 0.0}})
        assert code == EXIT_OK
        report = read_report(out, "purcell_report.json")
        for mode in report["modes"]:
            assert mode["decay_ratio"] == 1.0

    def test_report_validates_against_schema(self, tmp_path):
        _, out = run(tmp_path, "purcell")
        with open(fixtures.fixture_path("purcell_report.schema.json")) as fh:
            schema = json.load(fh)
        jsonschema.validate(read_report(out, "purcell_report.json"), schema)


class TestBrightnessCommand:
    def test_synthetic_sweep(self, tmp_path):
        code, out = run(tmp_path, "brightness")
        assert code == EXIT_OK
        report = read_report(out, "brightness_report.json")
        assert report["linear_fit"]["r_squared"] > 0.99
        best = max(m["fit"]["g_ueV"] for m in report["modes"])
        assert best == pytest.approx(25.0, rel=0.05)
        for mode in report["modes"]:
            p = mode["p"]
            assert (out / f"envelope_p{p}.csv").exists()
            assert (out / f"beta_p{p}.csv").exists()
            assert (out / f"recovered_s_dtilde_p{p}.csv").exists()

    def test_zero_coupling_flags_noise_floor(self, tmp_path):
        code, out = run(tmp_path, "brightness",
                        config={"measured": {"g_spectral_max_uev": 0.0}})
        assert code == EXIT_OK
        report = read_report(out, "brightness_report.json")
        for mode in report["modes"]:
            assert mode["fit"]["flag"] == "below-noise-floor"

    def test_deterministic_and_parallel_identical(self, tmp_path):
        _, out_a = run(tmp_path, "brightness", "--seed", "7", name="a")
        _, out_b = run(tmp_path, "brightness", "--seed", "7", "--parallel", "3", name="b")
        assert (out_a / "brightness_report.json").read_bytes() \
            == (out_b / "brightness_report.json").read_bytes()
        assert (out_a / "envelope_p6.csv").read_bytes() \
            == (out_b / "envelope_p6.csv").read_bytes()

    def test_seed_changes_noise(self, tmp_path):
        _, out_a = run(tmp_path, "brightness", "--seed", "7", name="a")
        _, out_b = run(tmp_path, "brightness", "--seed", "8", name="b")
        assert (out_a / "envelope_p6.csv").read_bytes() \
            != (out_b / "envelope_p6.csv").read_bytes()

    def test_measured_envelope_path(self, tmp_path):
        # a synthetic envelope written to CSV comes back through the
        # measured-data route with the coupling it was built with
        _, out = run(tmp_path, "brightness",
                     config={"analysis": {"brightness": {"noise_frac": 0.0}}},
                     name="synth")
        cfg = {"analysis": {"brightness": {
            "envelope_csv": str(out / "envelope_p6.csv")}}}
        code, out2 = run(tmp_path, "brightness", config=cfg, name="measured")
        assert code == EXIT_OK
        report = read_report(out2, "brightness_report.json")
        assert report["mode"] == "measured"
        assert report["fit"]["g_ueV"] == pytest.approx(25.0, rel=1e-3)


class TestLifetimeCommand:
    def test_paper_ratio_reproduced(self, tmp_path):
        code, out = run(tmp_path, "lifetime")
        assert code == EXIT_OK
        report = read_report(out, "lifetime_report.json")
        assert report["lifetime_ratio"] == pytest.approx(1.19, abs=0.09)
        assert report["free_space"]["tau2_ps"] == pytest.approx(256.0, abs=4.0)
        assert report["free_space"]["long_weight"] > 0.8

    def test_measured_csv_path(self, tmp_path):
        # synthesize, save, then reload through the measured-data path
        _, out = run(tmp_path, "lifetime", name="synth")
        cfg = {"analysis": {"lifetime": {
            "fs_trace_csv": str(out / "decay_fs.csv"),
            "cavity_trace_csv": str(out / "decay_cavity.csv")}}}
        code, out2 = run(tmp_path, "lifetime", config=cfg, name="measured")
        assert code == EXIT_OK
        report = read_report(out2, "lifetime_report.json")
        assert report["lifetime_ratio"] == pytest.approx(1.19, abs=0.09)

    def test_empty_input_is_io_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        cfg = {"analysis": {"lifetime": {"fs_trace_csv": str(empty),
                                         "cavity_trace_csv": str(empty)}}}
        code, _ = run(tmp_path, "lifetime", config=cfg, name="empty")
        assert code == EXIT_IO

    def test_malformed_input_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_ps,counts\n0.0,1.0\nnot,numbers\n")
        cfg = {"analysis": {"lifetime": {"fs_trace_csv": str(bad),
                                         "cavity_trace_csv": str(bad)}}}
        code, _ = run(tmp_path, "lifetime", config=cfg, name="bad")
        assert code == EXIT_CONFIG


class TestSaturationCommand:
    def test_pulsed_yield(self, tmp_path):
        code, out = run(tmp_path, "saturation")
        assert code == EXIT_OK
        report = read_report(out, "saturation_report.json")
        assert report["i_sat"] == pytest.approx(1768.0, rel=0.03)
        assert report["eta_qy"] == pytest.approx(0.007, rel=0.05)

    def test_cw_mode(self, tmp_path):
        code, out = run(tmp_path, "saturation",
                        config={"analysis": {"saturation": {"mode": "cw"}}})
        assert code == EXIT_OK
        report = read_report(out, "saturation_report.json")
        assert report["eta_qy"] is None

    def test_written_curve_reingests_losslessly(self, tmp_path):
        _, out = run(tmp_path, "saturation", name="synth")
        first = read_report(out, "saturation_report.json")
        cfg = {"analysis": {"saturation": {"curve_csv": str(out / "saturation.csv")}}}
        code, out2 = run(tmp_path, "saturation", config=cfg, name="reload")
        assert code == EXIT_OK
        second = read_report(out2, "saturation_report.json")
        assert second["i_sat"] == pytest.approx(first["i_sat"], rel=1e-12)
        assert second["p_sat"] == pytest.approx(first["p_sat"], rel=1e-12)


class TestG2Command:
    def test_paper_metrics(self, tmp_path):
        code, out = run(tmp_path, "g2")
        assert code == EXIT_OK
        report = read_report(out, "g2_report.json")
        assert report["g2_zero_raw"] == pytest.approx(0.40, abs=0.01)
        assert report["g2_zero_corrected"] == pytest.approx(0.36, rel=1e-9)
        assert report["bunching_time_fit_ps"] == pytest.approx(10000.0, rel=0.10)


class TestBudgetCommand:
    def test_paper_numbers(self, tmp_path):
        code, out = run(tmp_path, "budget")
        assert code == EXIT_OK
        report = read_report(out, "budget_report.json")
        assert report["photons_per_count_planar"] == pytest.approx(41.4, abs=0.1)
        assert report["detected_port_ratio_fiber_over_planar"] == pytest.approx(6.67, abs=0.1)
        assert report["fiber_flux_per_s"] == pytest.approx(2.07e7, rel=0.02)
        assert report["collection_ratio_fs_over_cav"] == pytest.approx(4.9, abs=0.1)
        assert 0.6 <= report["cryostat_optics_solved"] <= 0.8


class TestExitCodes:
    def test_no_config_at_all(self, tmp_path):
        assert main(["purcell", "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        code = main(["purcell", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_IO

    def test_empty_config_file(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("")
        assert main(["purcell", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == EXIT_IO

    def test_invalid_json_config(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["purcell", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_unknown_fixture_set(self, tmp_path):
        assert main(["purcell", "--fixture", "primo",
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_invalid_parameter_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"emitter": {"debye_waller": 2.0}}))
        code = main(["spectrum", "--fixture", "paper", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_diagnostics_are_single_line_json(self, tmp_path, capsys):
        main(["purcell", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        payload = json.loads(err)
        assert payload["exit_code"] == EXIT_CONFIG
        assert payload["command"] == "purcell"

    def test_fit_nonconvergence_maps_to_exit_3(self, tmp_path, monkeypatch):
        import cavqed.cli as cli_mod

        def explode(config, seed):
            raise cli_mod.FitError("synthetic non-convergence")

        monkeypatch.setitem(cli_mod._COMMANDS, "purcell", explode)
        code = main(["purcell", "--fixture", "paper", "--out", str(tmp_path / "x")])
        assert code == EXIT_FIT

    @pytest.mark.parametrize("command", ["spectrum", "g2"])
    def test_zero_lifetime_is_config_error(self, tmp_path, command):
        code, _ = run(tmp_path, command, config={"emitter": {"lifetime_fs_ps": 0}})
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["spectrum", "lifetime", "g2"])
    def test_nan_lifetime_is_config_error(self, tmp_path, command):
        code, _ = run(tmp_path, command, config='{"emitter": {"lifetime_fs_ps": NaN}}')
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("config, key", [
        ({"colour": "red"}, "colour"),
        ({"emitter": {"temperatur_k": 300}}, "emitter.temperatur_k"),
        ({"analysis": {"spectrum": {"step": 2.0}}}, "analysis.spectrum.step"),
        ({"emitter": 5}, "emitter"),
        ('{"emitter": {"temperature_k": Infinity}}', "emitter.temperature_k"),
        ('{"cavity": {"refractive_index": 1e999}}', "cavity.refractive_index"),
        ('{"emitter": {"decay_weights": [2.0, NaN]}}', "emitter.decay_weights"),
        ({"seed": -1}, "seed"),
        # a (command, extra arguments, config) tuple runs another command
        (("lifetime", (), {"analysis": {"lifetime": {"irf_fwhm_ps": -5.0}}}),
         "analysis.lifetime.irf_fwhm_ps"),
        (("g2", (), {"g2_scheme": {"irf_fwhm_ps": -5.0}}), "g2_scheme.irf_fwhm_ps"),
        (("purcell", (), {"cavity": {"mode_orders": []}}), "cavity.mode_orders"),
        (("brightness", (), {"cavity": {"mode_orders": []}}), "cavity.mode_orders"),
        (("purcell", (), {"cavity": {"mode_orders": [6, 42]}}), "cavity.mode_orders"),
        (("brightness", (), {"cavity": {"mode_orders": [6, 42]}}), "cavity.mode_orders"),
        (("spectrum", ("--seed", "-1"), None), "--seed"),
        (("brightness", ("--seed", "-1"), None), "--seed"),
        (("budget", ("--parallel", "-3"), None), "--parallel"),
        (("lifetime", (), {"analysis": {"lifetime": {"bin_ps": 0}}}),
         "analysis.lifetime.bin_ps"),
        (("lifetime", (), {"analysis": {"lifetime": {"bin_ps": -4}}}),
         "analysis.lifetime.bin_ps"),
        (("lifetime", (), {"analysis": {"lifetime": {"peak_counts": 0}}}),
         "analysis.lifetime.peak_counts"),
        (("lifetime", (), {"analysis": {"lifetime": {"peak_counts": -1e5}}}),
         "analysis.lifetime.peak_counts"),
        (("brightness", (), {"analysis": {"brightness": {"noise_frac": -0.01}}}),
         "analysis.brightness.noise_frac"),
        (("saturation", (), {"analysis": {"saturation": {"noise_frac": -0.01}}}),
         "analysis.saturation.noise_frac"),
        (("saturation", (), {"analysis": {"saturation": {"n_points": 0}}}),
         "analysis.saturation.n_points"),
        (("saturation", (), {"analysis": {"saturation": {"n_points": 2.5}}}),
         "analysis.saturation.n_points"),
        (("saturation", (), {"analysis": {"saturation": {"mode": "pulse"}}}),
         "analysis.saturation.mode"),
        (("saturation", (), {"analysis": {"saturation": {"p_sat": -5}}}),
         "analysis.saturation.p_sat"),
        (("g2", (), {"analysis": {"g2": {"tau_step_ps": 0}}}), "analysis.g2.tau_step_ps"),
        (("g2", (), {"g2_scheme": {"background": 1.2}}), "g2_scheme.background"),
        (("brightness", (), {"analysis": {"brightness": {"step_uev": -4}}}),
         "analysis.brightness.step_uev"),
        # an alias removed in favour of measured.g_spectral_max_uev
        (("brightness", (), {"analysis": {"brightness": {"g_max_uev": 25.0}}}),
         "analysis.brightness.g_max_uev"),
        (("brightness", (), {"seed": True}), "seed"),
        (("lifetime", (), {"emitter": {"decay_weights": [1]}}), "emitter.decay_weights"),
        (("purcell", (), {"cavity": {"refractive_index": "x"}}), "cavity.refractive_index"),
        (("purcell", (), {"emitter": {"eta_qy": 7}}), "emitter.eta_qy"),
        (("budget", (), {"measured": {"cryostat_optics_quoted": "abc"}}),
         "measured.cryostat_optics_quoted"),
        ({"analysis": {"spectrum": {"step_uev": 0}}}, "analysis.spectrum.step_uev"),
        ({"emitter": {"debye_waller": 1.5}}, "emitter.debye_waller"),
        ({"emitter": {"temperature_k": -3}}, "emitter.temperature_k"),
        ({"emitter": {"sideband": {"cutoff_uev": -5}}}, "emitter.sideband.cutoff_uev"),
        ({"emitter": {"zpl_fwhm_uev": True}}, "emitter.zpl_fwhm_uev"),
        (("brightness", (), {"measured": {"g_spectral_max_uev": -3}}),
         "measured.g_spectral_max_uev"),
        # an alias removed in favour of measured.decay_ratio
        (("lifetime", (), {"analysis": {"lifetime": {"decay_ratio": 1.19}}}),
         "analysis.lifetime.decay_ratio"),
    ])
    def test_bad_config_names_the_key(self, tmp_path, capsys, config, key):
        command, extra = "spectrum", ()
        if isinstance(config, tuple):
            command, extra, config = config
        code, out = run(tmp_path, command, *extra, config=config)
        assert code == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert key in json.loads(line)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("error", [TypeError, KeyError])
    def test_type_error_is_not_a_config_error(self, tmp_path, monkeypatch, error):
        # every config value is checked and every fixture column required
        # at load, so a TypeError or a KeyError is a bug
        import cavqed.cli as cli_mod

        def explode(config, seed):
            raise error("synthetic bug")

        monkeypatch.setitem(cli_mod._COMMANDS, "purcell", explode)
        with pytest.raises(error, match="synthetic bug"):
            run(tmp_path, "purcell")

    @pytest.mark.parametrize("argv, command", [
        (["spectrum", "--seed", "abc"], "spectrum"),
        (["spectrum", "--parallel", "x"], "spectrum"),
        (["nosuch"], None),
        (["spectrum", "--bogus"], "spectrum"),
        ([], None),
    ], ids=["seed", "parallel", "command", "flag", "empty"])
    def test_bad_command_line_is_one_json_line(self, tmp_path, monkeypatch, capsys,
                                               argv, command):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        payload = json.loads(line)
        assert payload["command"] == command
        assert payload["exit_code"] == EXIT_CONFIG
        assert payload["error"] and payload["message"]
        assert list(tmp_path.iterdir()) == []

    def test_missing_required_key_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}))
        code = main(["purcell", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert "emitter.wavelength_nm" in json.loads(capsys.readouterr().err)["message"]

    def test_warnings_are_single_line_json(self, tmp_path, capsys):
        # a 1 kHz repetition rate puts the pulsed quantum yield above one
        code, _ = run(tmp_path, "saturation", config={"measured": {"f_rep_hz": 1000.0}})
        assert code == EXIT_OK
        [record] = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert record["command"] == "saturation"
        assert record["warning"] == "UserWarning"
        assert "quantum yield" in record["message"]

    def test_fit_warning_precedes_exit_3(self, tmp_path, monkeypatch, capsys):
        import cavqed.cli as cli_mod

        def explode(config, seed):
            warnings.warn("fit did not converge; returning best iterate")
            raise cli_mod.FitError("synthetic non-convergence")

        monkeypatch.setitem(cli_mod._COMMANDS, "lifetime", explode)
        assert run(tmp_path, "lifetime")[0] == EXIT_FIT
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [(r.get("warning"), r.get("exit_code")) for r in records] \
            == [("UserWarning", None), (None, EXIT_FIT)]

    @staticmethod
    def _solver_never_converges(monkeypatch):
        # the real solver's result, reported as stopped at max_nfev
        solve = dynamics._trf_lower_bounded

        def unconverged(*args, **kwargs):
            return solve(*args, **kwargs)._replace(status=0)

        monkeypatch.setattr(dynamics, "_trf_lower_bounded", unconverged)

    def test_unconverged_saturation_fit_exits_3(self, tmp_path, monkeypatch, capsys):
        self._solver_never_converges(monkeypatch)
        code, out = run(tmp_path, "saturation")
        assert code == EXIT_FIT
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["exit_code"] == EXIT_FIT
        assert record["message"] == "saturation: 1 fit(s) did not converge"
        assert not out.exists()

    def test_unconverged_lifetime_fit_warns_before_exit_3(self, tmp_path, monkeypatch,
                                                          capsys):
        self._solver_never_converges(monkeypatch)
        code, out = run(tmp_path, "lifetime")
        assert code == EXIT_FIT
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        *warned, failed = records
        assert warned
        assert all(r["warning"] == "UserWarning" and "did not converge" in r["message"]
                   for r in warned)
        assert failed["exit_code"] == EXIT_FIT
        assert failed["message"] == "lifetime: 2 fit(s) did not converge"
        assert not out.exists()

    @pytest.mark.parametrize("code", [EXIT_CONFIG, EXIT_FIT, EXIT_IO])
    def test_failed_run_writes_nothing(self, tmp_path, monkeypatch, code):
        import cavqed.cli as cli_mod

        def explode(config, seed):
            raise cli_mod.FitError("synthetic non-convergence")

        config = None
        if code == EXIT_CONFIG:
            config = {"emitter": {"debye_waller": 2.0}}
        elif code == EXIT_FIT:
            monkeypatch.setitem(cli_mod._COMMANDS, "brightness", explode)
        else:
            config = {"analysis": {"brightness": {"envelope_csv": str(tmp_path / "no.csv")}}}
        assert run(tmp_path, "brightness", config=config)[0] == code
        assert not (tmp_path / "run").exists()


def test_every_default_passes_its_rule():
    def leaves(table):
        for entry in table.values():
            yield from leaves(entry) if isinstance(entry, dict) else [entry]

    for default, (what, test) in leaves(CONFIG_KEYS):
        assert default in (REQUIRED, None) or test(default), (default, what)


@pytest.mark.parametrize("command", list(_COMMANDS.values()))
def test_commands_compute_without_writing(tmp_path, monkeypatch, command):
    # every file item has one of the two shapes write_outputs takes
    monkeypatch.chdir(tmp_path)
    report, files = command(load_config(None, "paper"), DEFAULT_SEED)
    assert isinstance(report, dict)
    assert list(tmp_path.iterdir()) == []
    headers = (spectra.SPECTRUM_HEADER, "time_ps,counts", "power,counts", "tau_ps,g2")
    for name, item in files.items():
        if name.endswith(".csv"):
            header, x, y = item
            assert header in headers, name
            assert np.ndim(x) == 1 and np.shape(x) == np.shape(y), name
        else:
            assert name.endswith(".svg"), name
            x, series, labels = item
            assert isinstance(labels, dict), name
            assert all(len(values) == len(x) for _, values in series), name


class TestInputData:
    """Exit codes for bad input CSVs: unreadable or empty files are I/O
    errors (4), bad contents are validation errors (2)."""

    @pytest.fixture(scope="class")
    def envelope_text(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("envelope")
        _, out = run(tmp_path, "brightness")
        return (out / "envelope_p6.csv").read_text()

    def run_envelope(self, tmp_path, text):
        path = tmp_path / "envelope.csv"
        path.write_text(text)
        cfg = {"analysis": {"brightness": {"envelope_csv": str(path)}}}
        return run(tmp_path, "brightness", config=cfg, name="measured")[0]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_envelope_is_config_error(self, tmp_path, envelope_text, bad, capsys):
        lines = envelope_text.splitlines(keepends=True)
        energy = lines[100].split(",")[0]
        lines[100] = f"{energy},{bad}\n"
        assert self.run_envelope(tmp_path, "".join(lines)) == EXIT_CONFIG
        assert "envelope.csv" in json.loads(capsys.readouterr().err)["message"]

    def test_empty_envelope_is_io_error(self, tmp_path):
        assert self.run_envelope(tmp_path, "") == EXIT_IO

    def test_missing_envelope_is_io_error(self, tmp_path):
        cfg = {"analysis": {"brightness": {"envelope_csv": str(tmp_path / "nope.csv")}}}
        assert run(tmp_path, "brightness", config=cfg)[0] == EXIT_IO

    def test_nan_in_trace_names_the_file(self, tmp_path, capsys):
        _, out = run(tmp_path, "lifetime", name="synth")
        lines = (out / "decay_cavity.csv").read_text().splitlines(keepends=True)
        lines[60] = lines[60].split(",")[0] + ",nan\n"
        bad = tmp_path / "nan_trace.csv"
        bad.write_text("".join(lines))
        capsys.readouterr()
        cfg = {"analysis": {"lifetime": {"fs_trace_csv": str(out / "decay_fs.csv"),
                                         "cavity_trace_csv": str(bad)}}}
        code, _ = run(tmp_path, "lifetime", config=cfg, name="measured")
        assert code == EXIT_CONFIG
        message = json.loads(capsys.readouterr().err)["message"]
        assert "nan_trace.csv" in message and "non-finite" in message

    @pytest.mark.parametrize("command, key, rows, problem", [
        ("brightness", "envelope_csv", "energy_ueV,value\n0,1\n1,1\n3,1",
         "grid must be uniform to 1 part in 1e9"),
        ("lifetime", "cavity_trace_csv", "time_ps,counts\n0,1\n4,-2\n8,1",
         "counts must be finite and nonnegative"),
        ("saturation", "curve_csv", "power,counts\n0,-1\n1,-2\n2,-3\n4,-3.5",
         "counts have no positive value to fit"),
        ("saturation", "curve_csv", "power,counts\n-1,1\n1,2\n2,3\n4,3.5",
         "powers must be >= 0"),
        # errors of the parser itself carry the same single prefix
        ("brightness", "envelope_csv", "energy,value\n0,1\n1,1",
         "expected header 'energy_ueV,value', got 'energy,value'"),
        ("saturation", "curve_csv", "power,counts\n0,1\n1,x",
         "malformed number: could not convert string to float: 'x'"),
    ], ids=["envelope-grid", "trace-count", "curve-counts", "curve-power", "envelope-header",
            "curve-number"])
    def test_bad_contents_name_the_file(self, tmp_path, capsys, command, key, rows, problem):
        path = tmp_path / "input.csv"
        path.write_text(rows + "\n")
        options = {key: str(path)}
        if command == "lifetime":
            options["fs_trace_csv"] = str(path)
        code, out = run(tmp_path, command, config={"analysis": {command: options}})
        assert code == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["message"] == f"{path}: {problem}"
        assert not out.exists()

    def test_curve_with_a_negative_count_is_fitted(self, tmp_path):
        powers = [0.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0]
        counts = [-1.0, 400.0, 900.0, 1300.0, 1600.0, 1750.0]
        path = tmp_path / "curve.csv"
        path.write_text("power,counts\n" + "".join(f"{p},{c}\n" for p, c in zip(powers, counts)))
        code, out = run(tmp_path, "saturation",
                        config={"analysis": {"saturation": {"curve_csv": str(path)}}})
        assert code == EXIT_OK
        fit = dynamics.fit_saturation(powers, counts, "pulsed")
        assert read_report(out, "saturation_report.json")["i_sat"] == fit.i_sat


def _run_python(code):
    """The completed fresh interpreter that ran `code` with this cavqed."""
    env = dict(os.environ, PYTHONPATH=str(Path(cavqed.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120, env=env)


_SCIPY_LOADED = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"


def test_cli_import_loads_no_scipy():
    code = f"import sys, cavqed.cli; print({_SCIPY_LOADED})"
    assert _run_python(code).stdout.strip() == "False"


def test_cli_import_loads_no_numpy():
    # each command imports numpy and the physics modules in its own body
    code = "import sys, cavqed.cli; print('numpy' in sys.modules)"
    assert _run_python(code).stdout.strip() == "False"


@pytest.mark.parametrize("argv, outcome", [
    (["budget", "--fixture", "paper", "--out", "{tmp}/out"], "returned 0"),
    (["--help"], "exited 0"),
    (["spectrum", "--config", "{tmp}/missing.json"], "returned 4"),
], ids=["budget", "help", "missing-config"])
def test_scalar_paths_load_no_numpy(tmp_path, argv, outcome):
    # the photon budget is scalar arithmetic, and --help or a run that
    # stops before computing has no use for numpy either
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = (
        "import sys\n"
        "from cavqed.cli import main\n"
        "try:\n"
        f"    outcome = 'returned %d' % main({argv!r})\n"
        "except SystemExit as exit:\n"
        "    outcome = f'exited {exit.code}'\n"
        "print(outcome, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    # main prints reports and help on stdout and diagnostics on stderr,
    # so the probe's line is the last one
    assert _run_python(code).stderr.splitlines()[-1] == f"{outcome} False"


def test_package_attribute_imports_submodule():
    code = ("import sys, cavqed\n"
            "loaded = 'cavqed.spectra' in sys.modules\n"
            "print(loaded, cavqed.spectra.energy_grid(0.0, 2.0, 1.0).tolist())")
    assert _run_python(code).stdout.strip() == "False [-2.0, -1.0, 0.0, 1.0, 2.0]"


def test_lazy_submodules_are_the_package_modules():
    package = Path(cavqed.__file__).parent
    assert cavqed._SUBMODULES == {path.stem for path in package.glob("*.py")} - {"__init__"}
    with pytest.raises(AttributeError, match="no_such_module"):
        cavqed.no_such_module


def test_commands_load_no_scipy(tmp_path):
    # scipy is a test dependency only: the fits of brightness, lifetime and
    # saturation run the numpy ports of its bounded Brent and TRF methods
    commands = ["spectrum", "purcell", "brightness", "lifetime", "saturation", "g2", "budget"]
    code = (
        "import sys, cavqed.cli\n"
        f"for command in {commands!r}:\n"
        f"    out = {str(tmp_path)!r} + '/' + command\n"
        "    code = cavqed.cli.main([command, '--fixture', 'paper', '--out', out])\n"
        f"    print(command, code, {_SCIPY_LOADED}, file=sys.stderr)\n"
    )
    # main prints each report on stdout, so the probe writes to stderr
    lines = _run_python(code).stderr.splitlines()
    assert lines == [f"{command} 0 False" for command in commands]


def test_saturation_loads_no_numpy_ma(tmp_path):
    # np.median imports numpy.ma, which costs a cold start about 17 ms
    code = (
        "import sys, cavqed.cli\n"
        f"code = cavqed.cli.main(['saturation', '--fixture', 'paper', '--out', {str(tmp_path)!r}])\n"
        "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    assert _run_python(code).stderr.strip() == "0 False"


class TestFixtureDirOverride:
    def test_env_var_redirects_fixtures(self, tmp_path, monkeypatch):
        alt = tmp_path / "fixtures"
        alt.mkdir()
        for name in ("table_s1.csv", "table_s2.csv", "table_s3.csv",
                     "paper_defaults.json", "purcell_report.schema.json"):
            shutil.copy(fixtures.fixture_path(name), alt / name)
        # tweak one fixture value and confirm it propagates
        text = (alt / "table_s1.csv").read_text().replace("2.49", "2.60")
        (alt / "table_s1.csv").write_text(text)
        monkeypatch.setenv("PL_FIXTURE_DIR", str(alt))
        table = fixtures.load_table_s1()
        assert table[6]["v_eff_lambda3"] == 2.60
        code, out = run(tmp_path, "purcell")
        assert code == EXIT_OK
        report = read_report(out, "purcell_report.json")
        assert report["modes"][0]["v_eff_lambda3_fixture"] == 2.60

    @pytest.mark.parametrize("command, name, row, problem", [
        # a repeated row would otherwise overwrite (S1) or multiply in
        # twice (S2) without a word
        ("purcell", "table_s1.csv", "6,2.49,56900,11200,7.85,6.03", "appears more than once"),
        ("budget", "table_s2.csv", "beamsplitter,0.612,0.98,", "appears more than once"),
        ("budget", "table_s3.csv", "note,1,1,1,1", "more cells than the header"),
        # a cell that is not a finite number would reach the report as NaN
        # or fail without naming the file
        ("purcell", "table_s1.csv", "10,nan,56900,11200,7.85,6.03",
         "p '10' has v_eff_lambda3 'nan', not a finite number"),
        ("brightness", "table_s1.csv", "10,2.49,inf,11200,7.85,6.03",
         "p '10' has q_th 'inf', not a finite number"),
        ("budget", "table_s2.csv", "relay,0.9,abc,", "has cavity_planar 'abc', not a finite"),
        # a mode order is a row key: int() alone would name neither the
        # file nor the row, and "06" would overwrite row 6
        ("purcell", "table_s1.csv", "7.5,2.86,49200,10500,5.32,4.4",
         "p '7.5' is not an integer >= 1"),
        ("purcell", "table_s1.csv", "06,2.49,56900,11200,7.85,6.03", "p '06' appears more than once"),
    ])
    def test_bad_fixture_row_is_config_error(self, tmp_path, monkeypatch, capsys,
                                             command, name, row, problem):
        alt = tmp_path / "fixtures"
        shutil.copytree(fixtures.fixture_path(name).parent, alt)
        with open(alt / name, "a") as fh:
            fh.write(row + "\n")
        monkeypatch.setenv("PL_FIXTURE_DIR", str(alt))
        code, out = run(tmp_path, command)
        assert code == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        message = json.loads(line)["message"]
        assert str(alt / name) in message and problem in message
        assert not out.exists()

    @pytest.mark.parametrize("column", [1, 2, 3, 4, 5])
    def test_blank_fixture_cell_is_config_error(self, tmp_path, monkeypatch, capsys, column):
        alt = tmp_path / "fixtures"
        shutil.copytree(fixtures.fixture_path("table_s1.csv").parent, alt)
        path = alt / "table_s1.csv"
        header, row_6, *rest = path.read_text().splitlines()
        cells = row_6.split(",")
        cells[column] = ""
        path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        monkeypatch.setenv("PL_FIXTURE_DIR", str(alt))
        code, out = run(tmp_path, "purcell")
        assert code == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        message = json.loads(line)["message"]
        name = header.split(",")[column]
        assert message == f"{path}: p '6' has no {name} value"
        assert not out.exists()

    def test_missing_override_file_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PL_FIXTURE_DIR", str(tmp_path / "nowhere"))
        with pytest.raises(FileNotFoundError):
            fixtures.fixture_path("table_s1.csv")
