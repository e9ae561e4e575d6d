import ast
import gc
import json
import math
import os
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cavqed
from cavqed import config, dynamics, fixtures, spectra
from cavqed.cli import (EXIT_CONFIG, EXIT_FIT, EXIT_IO, EXIT_OK, _COMMANDS, _read_input, main,
                        write_outputs)

from conftest import paper_tables, run_main, run_pl, run_python


def read_report(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


class TestSpectrumCommand:
    @pytest.mark.parametrize("overlay", [
        {"emitter": {"debye_waller": 0.001}, "analysis": {"spectrum": {"dw_window_uev": 6000}}},
        {"emitter": {"debye_waller": 1e-182, "sideband": {"cutoff_uev": 1e154}}},
    ], ids=["wide-window", "sideband-peak"])
    def test_window_past_the_grid_warns(self, tmp_path, capsys, overlay):
        # the sideband outweighs the ZPL, so the Debye-Waller window centred
        # on the spectrum's maximum runs past the grid
        code, out = run_main(tmp_path, "spectrum", config=overlay)
        assert code == EXIT_OK
        [line] = capsys.readouterr().err.splitlines()
        warning = json.loads(line)
        assert warning["warning"] == "UserWarning"
        assert "exceeds the grid" in warning["message"]
        assert 0 < read_report(out, "spectrum_report.json")["debye_waller_measured"] <= 1

    def test_writes_files_with_2pi_area(self, paper_runs):
        code, out, _ = paper_runs["spectrum"]
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
        code, out = run_main(tmp_path, "spectrum",
                             config={"emitter": {"debye_waller": 1.0, "temperature_k": 0.0}})
        assert code == EXIT_OK
        _, values = spectra.parse_two_column_csv((out / "fs_spectrum.csv").read_text(),
                                                 spectra.SPECTRUM_HEADER)
        interior = values[1:-1]
        peaks = np.sum((interior > values[:-2]) & (interior > values[2:]))
        assert peaks == 1

    def test_deterministic_rerun(self, tmp_path):
        _, out_a = run_main(tmp_path, "spectrum", name="a")
        _, out_b = run_main(tmp_path, "spectrum", name="b")
        for name in ("fs_spectrum.csv", "s_emi_tilde.csv", "s_abs_tilde.csv",
                     "spectrum.svg", "spectrum_report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestPurcellCommand:
    def test_paper_closure_in_report(self, paper_runs):
        code, _, report = paper_runs["purcell"]
        assert code == EXIT_OK
        assert report["solved"]["f_p"] == pytest.approx(29.2, abs=0.1)
        assert report["solved"]["eta_qy"] == pytest.approx(0.010, abs=5e-4)

    def test_zero_yield_config(self, tmp_path):
        code, out = run_main(tmp_path, "purcell", config={"emitter": {"eta_qy": 0.0}})
        assert code == EXIT_OK
        report = read_report(out, "purcell_report.json")
        for mode in report["modes"]:
            assert mode["decay_ratio"] == 1.0

    def test_report_validates_against_schema(self, paper_runs):
        out = paper_runs["purcell"].out
        with open(Path(__file__).parent / "purcell_report.schema.json") as fh:
            schema = json.load(fh)
        jsonschema.validate(read_report(out, "purcell_report.json"), schema)


class TestBrightnessCommand:
    def test_synthetic_sweep(self, paper_runs):
        code, out, report = paper_runs["brightness"]
        assert code == EXIT_OK
        assert report["linear_fit"]["r_squared"] > 0.99
        best = max(m["fit"]["g_ueV"] for m in report["modes"])
        assert best == pytest.approx(25.0, rel=0.05)
        for mode in report["modes"]:
            p = mode["p"]
            assert (out / f"envelope_p{p}.csv").exists()
            assert (out / f"beta_p{p}.csv").exists()
            assert (out / f"recovered_s_dtilde_p{p}.csv").exists()

    def test_zero_coupling_flags_noise_floor(self, tmp_path):
        code, out = run_main(tmp_path, "brightness",
                             config={"measured": {"g_spectral_max_uev": 0.0}})
        assert code == EXIT_OK
        report = read_report(out, "brightness_report.json")
        for mode in report["modes"]:
            assert mode["fit"]["flag"] == "below-noise-floor"

    def test_deterministic_and_parallel_identical(self, tmp_path):
        _, out_a = run_main(tmp_path, "brightness", "--seed", "7", name="a")
        _, out_b = run_main(tmp_path, "brightness", "--seed", "7", "--parallel", "3", name="b")
        assert (out_a / "brightness_report.json").read_bytes() \
            == (out_b / "brightness_report.json").read_bytes()
        assert (out_a / "envelope_p6.csv").read_bytes() \
            == (out_b / "envelope_p6.csv").read_bytes()

    def test_seed_changes_noise(self, tmp_path):
        _, out_a = run_main(tmp_path, "brightness", "--seed", "7", name="a")
        _, out_b = run_main(tmp_path, "brightness", "--seed", "8", name="b")
        assert (out_a / "envelope_p6.csv").read_bytes() \
            != (out_b / "envelope_p6.csv").read_bytes()

    def test_measured_envelope_path(self, tmp_path, paper_runs):
        # a synthetic envelope written to CSV comes back through the
        # measured-data route with the coupling it was built with
        out = paper_runs["brightness-noise-free"].out
        cfg = {"analysis": {"brightness": {
            "envelope_csv": str(out / "envelope_p6.csv")}}}
        code, out2 = run_main(tmp_path, "brightness", config=cfg, name="measured")
        assert code == EXIT_OK
        report = read_report(out2, "brightness_report.json")
        assert report["mode"] == "measured"
        assert report["fit"]["g_ueV"] == pytest.approx(25.0, rel=1e-3)


class TestLifetimeCommand:
    def test_paper_ratio_reproduced(self, paper_runs):
        code, _, report = paper_runs["lifetime"]
        assert code == EXIT_OK
        assert report["lifetime_ratio"] == pytest.approx(1.19, abs=0.09)
        assert report["free_space"]["tau2_ps"] == pytest.approx(256.0, abs=4.0)
        assert report["free_space"]["long_weight"] > 0.8

    def test_measured_csv_path(self, tmp_path, paper_runs):
        # synthesize, save, then reload through the measured-data path
        out = paper_runs["lifetime"].out
        cfg = {"analysis": {"lifetime": {
            "fs_trace_csv": str(out / "decay_fs.csv"),
            "cavity_trace_csv": str(out / "decay_cavity.csv")}}}
        code, out2 = run_main(tmp_path, "lifetime", config=cfg, name="measured")
        assert code == EXIT_OK
        report = read_report(out2, "lifetime_report.json")
        assert report["lifetime_ratio"] == pytest.approx(1.19, abs=0.09)

    @staticmethod
    def run_with_cavity_trace(tmp_path, paper_runs, text):
        """(exit code, out dir) of `pl lifetime` on the paper's free-space
        trace and a cavity trace file holding `text`."""
        cavity = tmp_path / "cavity.csv"
        cavity.write_text(text)
        cfg = {"analysis": {"lifetime": {
            "fs_trace_csv": str(paper_runs["lifetime"].out / "decay_fs.csv"),
            "cavity_trace_csv": str(cavity)}}}
        return run_main(tmp_path, "lifetime", config=cfg, name="measured")

    def test_traces_of_different_lengths(self, tmp_path, paper_runs):
        lines = (paper_runs["lifetime"].out / "decay_cavity.csv").read_text().splitlines()
        code, out = self.run_with_cavity_trace(tmp_path, paper_runs, "\n".join(lines[:301]))
        assert code == EXIT_OK
        assert read_report(out, "lifetime_report.json")["cavity"]["converged"]

    def test_traces_on_different_bins_are_drawn_at_their_own_times(self, tmp_path, paper_runs):
        # the cavity trace at twice the bin: as many rows, twice the span
        header, *rows = (paper_runs["lifetime"].out / "decay_cavity.csv").read_text().splitlines()
        doubled = [f"{2.0 * float(t)!r},{c}" for t, c in (row.split(",") for row in rows)]
        code, out = self.run_with_cavity_trace(tmp_path, paper_runs, "\n".join([header, *doubled]))
        assert code == EXIT_OK
        root = ET.parse(out / "lifetime.svg").getroot()
        free_space, cavity = ([float(pair.split(",")[0]) for pair in el.get("points").split()]
                              for el in root.iter() if el.tag.endswith("polyline"))
        # the x axis ends at pixel 840.00, the cavity trace's last time
        assert max(cavity) == 840.0 > max(free_space)

    def test_reads_no_spectral_parameter(self, tmp_path, paper_runs):
        # no wavelength, ZPL width or Debye-Waller factor: the traces of a
        # config holding only what the synthetic path reads
        paper = paper_runs["lifetime"].out
        cfg = tmp_path / "minimal.json"
        cfg.write_text(json.dumps({"emitter": {"lifetime_fs_ps": 256.0},
                                   "measured": {"decay_ratio": 1.19}}))
        out = tmp_path / "minimal"
        assert main(["lifetime", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for name in ("decay_fs.csv", "decay_cavity.csv"):
            assert (out / name).read_bytes() == (paper / name).read_bytes()

    def test_malformed_input_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_ps,counts\n0.0,1.0\nnot,numbers\n")
        cfg = {"analysis": {"lifetime": {"fs_trace_csv": str(bad),
                                         "cavity_trace_csv": str(bad)}}}
        code, _ = run_main(tmp_path, "lifetime", config=cfg, name="bad")
        assert code == EXIT_CONFIG


class TestSaturationCommand:
    def test_pulsed_yield(self, paper_runs):
        code, _, report = paper_runs["saturation"]
        assert code == EXIT_OK
        assert report["i_sat"] == pytest.approx(1768.0, rel=0.03)
        assert report["eta_qy"] == pytest.approx(0.007, rel=0.05)

    def test_cw_mode(self, tmp_path):
        code, out = run_main(tmp_path, "saturation",
                             config={"analysis": {"saturation": {"mode": "cw"}}})
        assert code == EXIT_OK
        report = read_report(out, "saturation_report.json")
        assert report["eta_qy"] is None

    def test_written_curve_reingests_losslessly(self, tmp_path, paper_runs):
        out = paper_runs["saturation"].out
        first = read_report(out, "saturation_report.json")
        cfg = {"analysis": {"saturation": {"curve_csv": str(out / "saturation.csv")}}}
        code, out2 = run_main(tmp_path, "saturation", config=cfg, name="reload")
        assert code == EXIT_OK
        second = read_report(out2, "saturation_report.json")
        assert second["i_sat"] == pytest.approx(first["i_sat"], rel=1e-12)
        assert second["p_sat"] == pytest.approx(first["p_sat"], rel=1e-12)

    def test_curve_whose_yield_overflows_names_the_file(self, tmp_path, capsys, paper_runs):
        # load checks the yield of the configured i_sat, not of the fitted one
        powers, counts = spectra.parse_two_column_csv(
            (paper_runs["saturation"].out / "saturation.csv").read_text(), "power,counts")
        path = tmp_path / "curve.csv"
        spectra.write_two_column_csv(path, "power,counts", powers, counts * 1e146)
        code, out = run_main(tmp_path, "saturation", config={
            "analysis": {"saturation": {"curve_csv": str(path)}},
            "budget": {"overall_quoted": {"free_space": 1e-167}}})
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["message"].startswith(
            f"{path}: config keys budget.overall_quoted.free_space and measured.f_rep_hz: ")
        assert not out.exists()


class TestG2Command:
    def test_paper_metrics(self, paper_runs):
        code, _, report = paper_runs["g2"]
        assert code == EXIT_OK
        assert report["g2_zero_raw"] == pytest.approx(0.40, abs=0.01)
        assert report["g2_zero_corrected"] == pytest.approx(0.36, rel=1e-9)
        assert report["bunching_time_fit_ps"] == pytest.approx(10000.0, rel=0.10)

    def test_no_shelving_has_no_bunching(self, tmp_path):
        code, out = run_main(tmp_path, "g2",
                             config={"g2_scheme": {"k_shelve_uev": 0, "k_deshelve_uev": 0}})
        assert code == EXIT_OK
        report = read_report(out, "g2_report.json")
        assert report["bunching_time_ps"] is None
        assert report["bunching_time_fit_ps"] is None


class TestBudgetCommand:
    def test_paper_numbers(self, paper_runs):
        code, _, report = paper_runs["budget"]
        assert code == EXIT_OK
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

    def test_config_root_must_be_an_object(self, tmp_path, capsys):
        assert run_main(tmp_path, "purcell", config=[1, 2])[0] == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["message"] == "config root must be a JSON object"

    def test_unknown_fixture_set(self, tmp_path):
        assert main(["purcell", "--fixture", "primo",
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv, code, message", [
        (["--fixture", "paper", "--config", ""], EXIT_IO, "config file not found: ''"),
        (["--fixture", "", "--config", "{paper}"], EXIT_CONFIG,
         "unknown fixture set '' (only 'paper')"),
        (["--fixture", "paper", "--out", ""], EXIT_CONFIG,
         "--out must be a nonempty path string, got ''"),
    ], ids=["config", "fixture", "out"])
    def test_empty_value_is_not_an_absent_one(self, tmp_path, monkeypatch, capsys, argv, code,
                                              message):
        # an empty --config, --fixture or --out names no file, set or
        # directory; the config file is complete, so an empty --fixture
        # read as none would run, and an empty --out read as a path is the
        # working directory
        monkeypatch.chdir(tmp_path)
        paper = tmp_path / "paper.json"
        paper.write_text(fixtures.paper_defaults())
        argv = ["budget", "--out", str(tmp_path / "x"), *(arg.format(paper=paper) for arg in argv)]
        assert main(argv) == code
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["message"] == message
        assert list(tmp_path.iterdir()) == [paper]

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        # RFC 8259 JSON is UTF-8, whatever the locale's encoding
        data = '{"analysis": {"saturation": {"mode": "pulsed\xe9"}}}'.encode("latin-1")
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(data)
        code = main(["saturation", "--fixture", "paper", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        offset = data.index(b"\xe9")
        assert json.loads(line)["message"] == (
            f"{cfg}: not UTF-8 text, invalid continuation byte at byte offset {offset}")
        assert not (tmp_path / "x").exists()

    def test_input_file_that_is_not_utf8(self, tmp_path):
        # a CSV is ASCII: UTF-16 text, with its byte order mark, is not read
        path = tmp_path / "curve.csv"
        path.write_bytes("power,counts\n0,1\n1,2\n2,3\n".encode("utf-16"))
        with pytest.raises(config.ConfigError) as err:
            _read_input(str(path), "input file")
        assert str(err.value) == f"{path}: not UTF-8 text, invalid start byte at byte offset 0"

    @pytest.mark.parametrize("argv, message", [
        ([], "no configuration given (use --config and/or --fixture paper)"),
        # a config file was given: the run fails on the first key it reads
        (["--config", "{empty}"], "config key cavity.modes is required"),
    ], ids=["none", "empty-file"])
    def test_no_configuration_is_named(self, tmp_path, capsys, argv, message):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        out = tmp_path / "x"
        argv = ["budget", "--out", str(out), *(arg.format(empty=empty) for arg in argv)]
        assert main(argv) == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["message"] == message
        assert not out.exists()

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

    # every case has an explicit id, so that deleting one renames no other;
    # the `config<i>-<key>` ids are the names pytest first gave them by
    # position.  A (command, extra arguments, config) tuple runs another
    # command than spectrum.  A value outside one key's rule is a case of
    # the boundary table (tests/config_boundary.py), which asserts that it
    # exits 2 naming the key
    @pytest.mark.parametrize("config, key", [
        pytest.param({"colour": "red"}, "colour", id="config0-colour"),
        pytest.param({"emitter": {"temperatur_k": 300}}, "emitter.temperatur_k",
                     id="config1-emitter.temperatur_k"),
        pytest.param({"analysis": {"spectrum": {"step": 2.0}}}, "analysis.spectrum.step",
                     id="config2-analysis.spectrum.step"),
        pytest.param({"emitter": 5}, "emitter", id="config3-emitter"),
        pytest.param('{"emitter": {"temperature_k": Infinity}}', "emitter.temperature_k",
                     id='{"emitter": {"temperature_k": Infinity}}-emitter.temperature_k'),
        pytest.param('{"cavity": {"refractive_index": 1e999}}', "cavity.refractive_index",
                     id='{"cavity": {"refractive_index": 1e999}}-cavity.refractive_index'),
        pytest.param('{"emitter": {"decay_weights": [2.0, NaN]}}', "emitter.decay_weights",
                     id='{"emitter": {"decay_weights": [2.0, NaN]}}-emitter.decay_weights'),
        # keys removed because they restated others: the rows to sweep are
        # those of cavity.modes, and brightness samples the spectrum's grid
        pytest.param(("purcell", (), {"cavity": {"mode_orders": [6]}}),
                     "unknown config key cavity.mode_orders",
                     id="config10-cavity.mode_orders"),
        pytest.param(("brightness", (), {"cavity": {"mode_orders": [6]}}),
                     "unknown config key cavity.mode_orders",
                     id="config11-cavity.mode_orders"),
        # a null member removes a known key, but an unknown key is an
        # error whatever its value
        pytest.param(("purcell", (), {"cavity": {"mode_orders": None}, "colour": None}),
                     "unknown config key cavity.mode_orders", id="null-unknown-key"),
        pytest.param(("brightness", (), {"analysis": {"brightness": {"step_uev": 2}}}),
                     "unknown config key analysis.brightness.step_uev",
                     id="config29-analysis.brightness.step_uev"),
        pytest.param(("brightness", (), {"analysis": {"brightness": {"half_span_uev": 6000}}}),
                     "unknown config key analysis.brightness.half_span_uev",
                     id="removed-brightness-half-span"),
        pytest.param(("spectrum", ("--seed", "-1"), None), "--seed", id="config14---seed"),
        pytest.param(("brightness", ("--seed", "-1"), None), "--seed", id="config15---seed"),
        pytest.param(("budget", ("--parallel", "-3"), None), "--parallel",
                     id="config16---parallel"),
        # an alias removed in favour of measured.g_spectral_max_uev
        pytest.param(("brightness", (), {"analysis": {"brightness": {"g_max_uev": 25.0}}}),
                     "analysis.brightness.g_max_uev", id="config30-analysis.brightness.g_max_uev"),
        # an alias removed in favour of measured.decay_ratio
        pytest.param(("lifetime", (), {"analysis": {"lifetime": {"decay_ratio": 1.19}}}),
                     "analysis.lifetime.decay_ratio", id="config42-analysis.lifetime.decay_ratio"),
        pytest.param(("g2", (), {"g2_scheme": {"k_deshelve_uev": 0}}), "g2_scheme.k_deshelve_uev",
                     id="config45-g2_scheme.k_deshelve_uev"),
        # a table is a nonempty array of row objects
        pytest.param(("purcell", (), {"cavity": {"modes": []}}), "cavity.modes",
                     id="empty-table"),
        pytest.param(("purcell", (), {"cavity": {"modes": {"p": 6}}}), "cavity.modes",
                     id="table-object"),
        pytest.param(("purcell", (), {"cavity": {"modes": [6]}}), "cavity.modes[0]",
                     id="scalar-row"),
        # a key given twice would keep its last value, and a stage given
        # twice would enter the product twice
        pytest.param('{"seed": 1, "seed": 2}', "'seed' appears more than once",
                     id="repeated-seed"),
        pytest.param(("budget", (), '{"budget": {"chains": {"free_space": {'
                                    '"beamsplitter": 0.612, "path_other": 0.58, '
                                    '"beamsplitter": 0.612}}}}'),
                     "'beamsplitter' appears more than once", id="repeated-stage"),
        # one measured trace must not fall back to the synthetic pair
        pytest.param(("lifetime", (), {"analysis": {"lifetime": {"cavity_trace_csv": "c.csv"}}}),
                     "config keys analysis.lifetime.fs_trace_csv and "
                     "analysis.lifetime.cavity_trace_csv: give both measured traces or neither, "
                     "got None and 'c.csv'", id="cavity-trace-only"),
        pytest.param(("lifetime", (), {"analysis": {"lifetime": {"fs_trace_csv": "f.csv"}}}),
                     "config keys analysis.lifetime.fs_trace_csv and "
                     "analysis.lifetime.cavity_trace_csv: give both measured traces or neither, "
                     "got 'f.csv' and None", id="fs-trace-only"),
        # the exit ratio solves cryostat_optics, which one cavity chain must list
        pytest.param(("budget", (), {"budget": {"chains": {"cavity_fiber": {
                         "cryostat_optics": 0.5}}}}),
                     "config keys budget.chains.cavity_planar and budget.chains.cavity_fiber: "
                     "exactly one must list the stage 'cryostat_optics'", id="cryostat-in-both"),
        pytest.param(("budget", (), {"budget": {"chains": {"cavity_planar": {
                         "cryostat_optics": None}}}}),
                     "config keys budget.chains.cavity_planar and budget.chains.cavity_fiber: "
                     "exactly one must list the stage 'cryostat_optics'", id="cryostat-in-neither"),
    ])
    def test_bad_config_names_the_key(self, tmp_path, capsys, config, key):
        command, extra = "spectrum", ()
        if isinstance(config, tuple):
            command, extra, config = config
        code, out = run_main(tmp_path, command, *extra, config=config)
        assert code == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert key in json.loads(line)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("error", [TypeError, KeyError, ValueError])
    def test_type_error_is_not_a_config_error(self, tmp_path, monkeypatch, error):
        # every config value is checked, every fixture column required and
        # every relation between values checked at load, so a TypeError, a
        # KeyError or a library ValueError is a bug
        import cavqed.cli as cli_mod

        def explode(config, seed):
            raise error("synthetic bug")

        monkeypatch.setitem(cli_mod._COMMANDS, "purcell", explode)
        with pytest.raises(error, match="synthetic bug"):
            run_main(tmp_path, "purcell")

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

    def test_calls_in_one_process_share_no_state(self, tmp_path, capsys):
        # the parser is built once per process; each call starts from the defaults
        assert run_main(tmp_path, "saturation", "--seed", "7", config={"seed": 5},
                        name="a")[0] == EXIT_OK
        assert run_main(tmp_path, "saturation", config={"seed": 5}, name="b")[0] == EXIT_OK
        assert run_main(tmp_path, "saturation", "--seed", "5", name="c")[0] == EXIT_OK
        a, b, c = (read_report(tmp_path / name, "saturation_report.json") for name in "abc")
        assert b == c != a
        capsys.readouterr()
        assert main(["--seed", "abc", "saturation"]) == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["command"] is None

    @pytest.mark.parametrize("code", [EXIT_OK, EXIT_CONFIG, EXIT_FIT, EXIT_IO])
    @pytest.mark.parametrize("collector", ["on", "off-frozen"])
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, monkeypatch, code,
                                                      collector):
        # only the process entry `run` turns the collector off and freezes
        # the heap; the in-process API touches neither
        import cavqed.cli as cli_mod

        extra = {EXIT_OK: [], EXIT_CONFIG: ["--seed", "-1"], EXIT_FIT: [],
                 EXIT_IO: ["--config", str(tmp_path / "missing.json")]}[code]
        if code == EXIT_FIT:
            def explode(config, seed):
                raise cli_mod.FitError("synthetic non-convergence")

            monkeypatch.setitem(cli_mod._COMMANDS, "budget", explode)
        if collector == "off-frozen":
            gc.disable()
            gc.freeze()
        try:
            enabled, frozen = gc.isenabled(), gc.get_freeze_count()
            assert main(["budget", "--fixture", "paper", "--out", str(tmp_path / "x"),
                         *extra]) == code
            after = gc.get_freeze_count()
            assert gc.isenabled() == enabled
            # a frozen object that the call frees leaves the frozen
            # generation, so its count may fall, but neither to 0 (unfreeze)
            # nor above where it was (freeze)
            assert after == 0 if frozen == 0 else 0 < after <= frozen
        finally:
            gc.unfreeze()
            gc.enable()

    def test_repeated_key_in_the_fixture(self, tmp_path, monkeypatch, capsys):
        text = fixtures.paper_defaults().replace('"decay_ratio": 1.19,',
                                                 '"decay_ratio": 1.19, "decay_ratio": 1.5,')
        monkeypatch.setattr(fixtures, "paper_defaults", lambda: text)
        code, out = run_main(tmp_path, "purcell")
        assert code == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["message"] \
            == "config key 'decay_ratio' appears more than once in one JSON object"
        assert not out.exists()

    def test_missing_required_key_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}))
        code = main(["purcell", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert "emitter.wavelength_nm" in json.loads(capsys.readouterr().err)["message"]

    def test_warnings_are_single_line_json(self, tmp_path, capsys):
        # a 1 kHz repetition rate puts the pulsed quantum yield above one
        code, _ = run_main(tmp_path, "saturation", config={"measured": {"f_rep_hz": 1000.0}})
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
        assert run_main(tmp_path, "lifetime")[0] == EXIT_FIT
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
        code, out = run_main(tmp_path, "saturation")
        assert code == EXIT_FIT
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["exit_code"] == EXIT_FIT
        assert record["message"] == "saturation: 1 fit(s) did not converge"
        assert not out.exists()

    def test_unconverged_lifetime_fit_warns_before_exit_3(self, tmp_path, monkeypatch,
                                                          capsys):
        self._solver_never_converges(monkeypatch)
        code, out = run_main(tmp_path, "lifetime")
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
        assert run_main(tmp_path, "brightness", config=config)[0] == code
        assert not (tmp_path / "run").exists()

    def test_failed_write_leaves_out_dir_as_it_was(self, tmp_path, capsys):
        # a directory in the way of the last file written
        (tmp_path / "run" / "spectrum.svg").mkdir(parents=True)
        assert run_main(tmp_path, "spectrum")[0] == EXIT_IO
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["exit_code"] == EXIT_IO
        assert [path.name for path in (tmp_path / "run").iterdir()] == ["spectrum.svg"]

    def test_failed_write_removes_the_dirs_it_made(self, tmp_path, monkeypatch):
        def full_disk(path, *args, **kwargs):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr("cavqed.svg.write_line_svg", full_disk)
        code = main(["spectrum", "--fixture", "paper", "--out", str(tmp_path / "a" / "b")])
        assert code == EXIT_IO
        assert list(tmp_path.iterdir()) == []

    def test_run_replaces_its_own_files_only(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        (out / "g2.csv").write_text("stale")
        assert run_main(tmp_path, "g2")[0] == EXIT_OK
        assert sorted(path.name for path in out.iterdir()) \
            == ["g2.csv", "g2.svg", "g2_report.json", "notes.txt"]
        assert (out / "notes.txt").read_text() == "kept"
        assert (out / "g2.csv").read_text().startswith("tau_ps,g2\n")

    def test_full_disk_leaves_a_users_out_dir_as_it_was(self, tmp_path, monkeypatch):
        # the second file fails half written; the first is already written
        import cavqed.spectra as spectra_mod

        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_bytes(b"kept\n")
        write = spectra_mod.write_two_column_csv
        calls = []

        def full_disk(path, *args, **kwargs):
            calls.append(path)
            if len(calls) < 2:
                return write(path, *args, **kwargs)
            Path(path).write_text("energy_ueV,")
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(spectra_mod, "write_two_column_csv", full_disk)
        assert run_main(tmp_path, "spectrum")[0] == EXIT_IO
        assert len(calls) == 2
        assert [path.name for path in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_bytes() == b"kept\n"

    def test_run_into_an_existing_out_dir_leaves_no_hidden_file(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        assert run_main(tmp_path, "lifetime")[0] == EXIT_OK
        assert sorted(path.name for path in out.iterdir()) \
            == ["decay_cavity.csv", "decay_fs.csv", "lifetime.svg", "lifetime_report.json"]

    def test_back_to_back_runs_into_one_out_dir(self, tmp_path):
        first = run_main(tmp_path, "spectrum")
        second = run_main(tmp_path, "spectrum")
        assert [first[0], second[0]] == [EXIT_OK, EXIT_OK]
        assert sorted(path.name for path in first[1].iterdir()) \
            == ["fs_spectrum.csv", "s_abs_tilde.csv", "s_emi_tilde.csv", "spectrum.svg",
                "spectrum_report.json"]


@pytest.mark.parametrize("command", ["purcell", "brightness"])
def test_modes_overlay_chooses_the_rows(tmp_path, paper_runs, command):
    # an overlay replaces cavity.modes whole, so it chooses the rows that
    # the sweep runs, in the order of p whatever the order of the rows
    rows = config.load("paper")["cavity"]["modes"]
    code, out = run_main(tmp_path, command, config={"cavity": {"modes": [rows[1], rows[0]]}})
    assert code == EXIT_OK
    assert read_report(out, f"{command}_report.json")["modes"] \
        == paper_runs[command].report["modes"][:2]


@pytest.mark.parametrize("command", ["spectrum", "brightness"])
def test_energy_grid_is_checked_once(monkeypatch, command):
    # every curve on the grid shares it, so a command checks its energy
    # grid once, not once per curve
    checked, real = [], spectra.uniform_step
    monkeypatch.setattr(spectra, "uniform_step",
                        lambda grid: checked.append(len(grid)) or real(grid))
    _COMMANDS[command](config.load("paper"), config.DEFAULT_SEED)
    assert checked == [3001]


@pytest.mark.parametrize("command", list(_COMMANDS.values()))
def test_commands_compute_without_writing(tmp_path, monkeypatch, command):
    # every file item has one of the two shapes write_outputs takes
    monkeypatch.chdir(tmp_path)
    report, files = command(config.load("paper"), config.DEFAULT_SEED)
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
            # a series item is (label, y) on the shared x or (label, x, y)
            for _, *xy in series:
                grid, values = xy if len(xy) == 2 else (x, *xy)
                assert np.ndim(grid) == 1 and np.shape(grid) == np.shape(values), name


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_report_number_raises_and_writes_nothing(tmp_path, value):
    # behind the relations that keep every report finite: JSON has no NaN
    # or Infinity, so a report holding one is a bug, not a file
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_outputs(tmp_path / "out", "purcell", {"solved": {"f_p": value}}, {})
    assert not (tmp_path / "out").exists()


class TestInputData:
    """Exit codes for bad input CSVs: unreadable or empty files are I/O
    errors (4), bad contents are validation errors (2)."""

    @pytest.fixture(scope="class")
    def envelope_text(self, paper_runs):
        return (paper_runs["brightness"].out / "envelope_p6.csv").read_text()

    def run_envelope(self, tmp_path, text):
        path = tmp_path / "envelope.csv"
        path.write_text(text)
        cfg = {"analysis": {"brightness": {"envelope_csv": str(path)}}}
        return run_main(tmp_path, "brightness", config=cfg, name="measured")[0]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_envelope_is_config_error(self, tmp_path, envelope_text, bad, capsys):
        lines = envelope_text.splitlines(keepends=True)
        energy = lines[100].split(",")[0]
        lines[100] = f"{energy},{bad}\n"
        assert self.run_envelope(tmp_path, "".join(lines)) == EXIT_CONFIG
        assert "envelope.csv" in json.loads(capsys.readouterr().err)["message"]

    def test_nan_in_trace_names_the_file(self, tmp_path, capsys, paper_runs):
        out = paper_runs["lifetime"].out
        lines = (out / "decay_cavity.csv").read_text().splitlines(keepends=True)
        lines[60] = lines[60].split(",")[0] + ",nan\n"
        bad = tmp_path / "nan_trace.csv"
        bad.write_text("".join(lines))
        cfg = {"analysis": {"lifetime": {"fs_trace_csv": str(out / "decay_fs.csv"),
                                         "cavity_trace_csv": str(bad)}}}
        code, _ = run_main(tmp_path, "lifetime", config=cfg, name="measured")
        assert code == EXIT_CONFIG
        message = json.loads(capsys.readouterr().err)["message"]
        assert "nan_trace.csv" in message and "non-finite" in message

    @pytest.mark.parametrize("command, key, rows, problem", [
        ("brightness", "envelope_csv", "energy_ueV,value\n0,1\n1,1\n3,1",
         "grid must be uniform to 1 part in 1e9"),
        ("lifetime", "cavity_trace_csv", "time_ps,counts\n0,1\n4,-2\n8,1",
         "counts must be finite and nonnegative"),
        # the library checks of a file's grid and values run as it is read
        ("brightness", "envelope_csv", "energy_ueV,value\n0,1\n40,1\n80,1",
         "grid too coarse: spacing 40 ueV exceeds zpl_fwhm/10 = 20 ueV"),
        ("lifetime", "cavity_trace_csv", "time_ps,counts\n0,1\n4,2\n8,1",
         "need at least 50 bins for a biexponential fit"),
        ("saturation", "curve_csv", "power,counts\n0,-1\n1,-2\n2,-3\n4,-3.5",
         "counts have no positive value to fit"),
        ("saturation", "curve_csv", "power,counts\n-1,1\n1,2\n2,3\n4,3.5",
         "powers must be >= 0"),
        ("saturation", "curve_csv", "power,counts\n0,10\n0,20\n0,30\n0,40\n0,50",
         "powers have no positive value to fit"),
        # a fit's squared residuals would overflow
        ("saturation", "curve_csv", "power,counts\n0,1\n1,1e200\n2,3",
         "counts must be at most 2**500"),
        ("lifetime", "cavity_trace_csv",
         f"time_ps,counts\n0,{math.nextafter(2.0 ** 500, math.inf)!r}"
         + "".join(f"\n{4 * i},1" for i in range(1, 50)),
         "counts must be at most 2**500"),
    ], ids=["envelope-grid", "trace-count", "envelope-coarse", "trace-short", "curve-counts",
            "curve-power", "curve-powers", "curve-overflow", "trace-overflow"])
    def test_bad_contents_name_the_file(self, tmp_path, capsys, command, key, rows, problem):
        path = tmp_path / "input.csv"
        path.write_bytes((rows + "\n").encode())
        options = {key: str(path)}
        if command == "lifetime":
            options["fs_trace_csv"] = str(path)
        code, out = run_main(tmp_path, command, config={"analysis": {command: options}})
        assert code == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["message"] == f"{path}: {problem}"
        assert not out.exists()

    def test_trace_at_the_count_bound_is_fitted(self, tmp_path, paper_runs):
        # the paper's cavity trace scaled to a peak of 2**500, the largest
        # count that a fit takes: its overflows are warnings, not a traceback
        time, counts = np.loadtxt(paper_runs["lifetime"].out / "decay_cavity.csv",
                                  delimiter=",", skiprows=1, unpack=True)
        path = tmp_path / "trace.csv"
        np.savetxt(path, np.column_stack([time, counts / counts.max() * 2.0 ** 500]),
                   fmt="%.17g", delimiter=",", header="time_ps,counts", comments="")
        options = {"fs_trace_csv": str(path), "cavity_trace_csv": str(path)}
        code, _ = run_main(tmp_path, "lifetime", config={"analysis": {"lifetime": options}})
        assert code == EXIT_OK

    def test_curve_with_a_negative_count_is_fitted(self, tmp_path):
        powers = [0.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0]
        counts = [-1.0, 400.0, 900.0, 1300.0, 1600.0, 1750.0]
        path = tmp_path / "curve.csv"
        path.write_text("power,counts\n" + "".join(f"{p},{c}\n" for p, c in zip(powers, counts)))
        code, out = run_main(tmp_path, "saturation",
                             config={"analysis": {"saturation": {"curve_csv": str(path)}}})
        assert code == EXIT_OK
        fit = dynamics.fit_saturation(powers, counts, "pulsed")
        assert read_report(out, "saturation_report.json")["i_sat"] == fit.i_sat


# What each entry of a `pl` process must leave out of sys.modules:
# - the imports, the photon budget, the Purcell bookkeeping and its
#   4-point plot, --help and a run that stops on its config are scalar
#   work, with no use for numpy or for inspect and tempfile, which numpy
#   imports;
# - no run loads csv, as the paper's tables are config sections, nor
#   dataclasses, as every value type is a units._record named tuple;
# - scipy is a test dependency only: the fits run the numpy ports of its
#   bounded Brent and TRF methods;
# - numpy.ma, which np.median imports, costs a cold start about 17 ms.
_SCALAR_UNNEEDED = ("numpy", "csv", "dataclasses", "inspect", "tempfile", "scipy")

# (step, argv or None for an import of the step's module), in the order
# that one fresh interpreter takes them: the scalar steps first, then the
# commands that load numpy
_ENTRIES = [
    ("cavqed.config", None),
    ("cavqed.cli", None),
    ("budget", ["budget", "--fixture", "paper", "--out", "{tmp}/budget"]),
    ("help", ["--help"]),
    ("missing-config", ["spectrum", "--config", "{tmp}/missing.json"]),
    ("purcell", ["purcell", "--fixture", "paper", "--out", "{tmp}/purcell"]),
    *((command, [command, "--fixture", "paper", "--out", f"{{tmp}}/{command}"])
      for command in _COMMANDS if command not in ("budget", "purcell")),
]


@pytest.fixture(scope="module")
def entry_modules(tmp_path_factory):
    """Step of _ENTRIES -> (its outcome, the modules of _SCALAR_UNNEEDED
    and numpy.ma loaded by then and not held by the bare interpreter),
    from one fresh interpreter; the first step that lists a module is the
    one that loaded it."""
    tmp = tmp_path_factory.mktemp("entries")
    entries = [(step, None if argv is None else [arg.format(tmp=tmp) for arg in argv])
               for step, argv in _ENTRIES]
    probe = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import contextlib, importlib, io, json\n"
        f"for step, argv in {entries!r}:\n"
        "    if argv is None:\n"
        "        importlib.import_module(step)\n"
        "        outcome = 'imported'\n"
        "    else:\n"
        "        try:\n"
        "            with contextlib.redirect_stdout(io.StringIO()):\n"
        "                outcome = 'returned %d' % sys.modules['cavqed.cli'].main(argv)\n"
        "        except SystemExit as exit:\n"
        "            outcome = f'exited {exit.code}'\n"
        f"    watched = {(*_SCALAR_UNNEEDED, 'numpy.ma')!r}\n"
        "    print(json.dumps([step, outcome,\n"
        "                      [m for m in watched if m in sys.modules and m not in bare]]))\n"
    )
    lines = run_python("-c", probe).stdout.splitlines()
    return {step: (outcome, loaded) for step, outcome, loaded in map(json.loads, lines)}


def _loaded(entry_modules, step, outcome, names):
    """The modules among `names` that the interpreter held after `step`,
    which must have ended in `outcome`."""
    assert entry_modules[step][0] == outcome
    return [name for name in names if name in entry_modules[step][1]]


def test_config_import_loads_no_numpy(entry_modules):
    # the builders import the physics modules in their own bodies
    assert _loaded(entry_modules, "cavqed.config", "imported", _SCALAR_UNNEEDED) == []


def test_cli_import_loads_no_numpy(entry_modules):
    # each command imports numpy and the physics modules in its own body
    assert _loaded(entry_modules, "cavqed.cli", "imported",
                   [m for m in _SCALAR_UNNEEDED if m != "scipy"]) == []


def test_cli_import_loads_no_scipy(entry_modules):
    assert _loaded(entry_modules, "cavqed.cli", "imported", ["scipy"]) == []


@pytest.mark.parametrize("step, outcome", [
    ("budget", "returned 0"),
    ("help", "exited 0"),
    ("missing-config", "returned 4"),
    ("purcell", "returned 0"),
], ids=["budget", "help", "missing-config", "purcell"])
def test_scalar_paths_load_no_numpy(entry_modules, step, outcome):
    assert _loaded(entry_modules, step, outcome, _SCALAR_UNNEEDED) == []


def _commands_loading(entry_modules, names):
    """(command, the modules among `names` held after it) for each of
    the seven commands that loaded one."""
    loaded = [(command, _loaded(entry_modules, command, "returned 0", names))
              for command in _COMMANDS]
    return [(command, modules) for command, modules in loaded if modules]


def test_commands_load_no_scipy(entry_modules):
    assert _commands_loading(entry_modules, ["scipy"]) == []


def test_commands_load_no_dataclasses(entry_modules):
    assert _commands_loading(entry_modules, ["dataclasses", "csv"]) == []


def test_saturation_loads_no_numpy_ma(entry_modules):
    # checked after saturation and after every other command
    assert _commands_loading(entry_modules, ["numpy.ma"]) == []


def test_package_attribute_imports_submodule():
    code = ("import sys, cavqed\n"
            "loaded = 'cavqed.spectra' in sys.modules\n"
            "print(loaded, cavqed.spectra.energy_grid(0.0, 2.0, 1.0).tolist())")
    assert run_python("-c", code).stdout.strip() == "False [-2.0, -1.0, 0.0, 1.0, 2.0]"


def test_lazy_submodules_are_the_package_modules():
    package = Path(cavqed.__file__).parent
    assert cavqed._SUBMODULES == {path.stem for path in package.glob("*.py")} - {"__init__"}
    with pytest.raises(AttributeError, match="no_such_module"):
        cavqed.no_such_module


@pytest.mark.parametrize("argv, code", [
    (["budget", "--fixture", "paper", "--out", "{tmp}/out"], EXIT_OK),
    (["budget", "--fixture", "paper", "--out", ""], EXIT_CONFIG),
], ids=["ok", "config-error"])
def test_process_entry_runs_the_command_with_the_collector_off(tmp_path, argv, code):
    # a spy in place of the command records the collector's state as it runs
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    probe = (
        "import gc, sys\n"
        "from cavqed import cli\n"
        "seen = []\n"
        "budget = cli._COMMANDS['budget']\n"
        "def spy(cfg, seed):\n"
        "    seen.append(gc.isenabled())\n"
        "    return budget(cfg, seed)\n"
        "cli._COMMANDS['budget'] = spy\n"
        f"sys.argv = ['pl', *{argv!r}]\n"
        "code = cli.run()\n"
        "print(code, seen, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    ran = "[False]" if code == EXIT_OK else "[]"
    assert run_python("-c", probe).stderr.splitlines()[-1] == f"{code} {ran} False True"


def test_process_entry_is_the_script_and_the_module_entry():
    # `pl` and `python -m cavqed.cli` both run `run`; tests and batch
    # callers call `main`
    import cavqed.cli as cli_mod

    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert '\n[project.scripts]\npl = "cavqed.cli:run"\n' in pyproject
    tree = ast.parse(Path(cli_mod.__file__).read_text())
    assert ast.unparse(tree.body[-1]) == "if __name__ == '__main__':\n    sys.exit(run())"


# the files each command writes with the paper fixture, and with the
# measured inputs that those runs wrote
_FILES = {
    "spectrum": ["fs_spectrum.csv", "s_abs_tilde.csv", "s_emi_tilde.csv", "spectrum.svg",
                 "spectrum_report.json"],
    "purcell": ["purcell.svg", "purcell_report.json"],
    "brightness": [*(f"beta_p{p}.csv" for p in range(6, 10)), "brightness_report.json",
                   *(f"envelope_p{p}.csv" for p in range(6, 10)), "g2_vs_inverse_volume.svg",
                   *(f"recovered_s_dtilde_p{p}.csv" for p in range(6, 10))],
    "lifetime": ["decay_cavity.csv", "decay_fs.csv", "lifetime.svg", "lifetime_report.json"],
    "saturation": ["saturation.csv", "saturation.svg", "saturation_report.json"],
    "g2": ["g2.csv", "g2.svg", "g2_report.json"],
    "budget": ["budget_report.json"],
}
_MEASURED_FILES = {"brightness": ["brightness_report.json"],
                   "lifetime": _FILES["lifetime"], "saturation": _FILES["saturation"]}


@pytest.mark.parametrize("command", list(_FILES))
def test_fresh_process_writes_exactly_its_files(paper_runs, command):
    # a temporary file left behind would show here
    assert sorted(os.listdir(paper_runs[command].out)) == _FILES[command]


@pytest.mark.parametrize("command", list(_MEASURED_FILES))
def test_fresh_process_reads_back_the_written_files(paper_runs, tmp_path, command):
    measured = {"analysis": {
        "brightness": {"envelope_csv": str(paper_runs["brightness"].out / "envelope_p6.csv")},
        "lifetime": {"fs_trace_csv": str(paper_runs["lifetime"].out / "decay_fs.csv"),
                     "cavity_trace_csv": str(paper_runs["lifetime"].out / "decay_cavity.csv")},
        "saturation": {"curve_csv": str(paper_runs["saturation"].out / "saturation.csv")}}}
    path = tmp_path / "measured.json"
    path.write_text(json.dumps(measured))
    report = json.loads(run_pl(command, tmp_path / "out", "--config", str(path)).stdout)["report"]
    assert sorted(os.listdir(tmp_path / "out")) == _MEASURED_FILES[command]
    if command == "brightness":
        assert report["mode"] == "measured"


def _closed_pipe():
    """The write end of a pipe whose read end is closed before the child
    starts, so that the child's first write to it fails without a race."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def test_closed_stdout_exits_4_and_keeps_the_files(tmp_path):
    # the report line is printed once the files are written
    stdout = _closed_pipe()
    done = run_pl("budget", tmp_path / "out", stdout=stdout, check=False)
    os.close(stdout)
    assert done.returncode == EXIT_IO
    [line] = done.stderr.splitlines()
    assert json.loads(line)["error"] == "BrokenPipeError"
    assert sorted(os.listdir(tmp_path / "out")) == _FILES["budget"]


def test_closed_stderr_keeps_exit_2(tmp_path):
    # a diagnostic that cannot be written is dropped, not a crash
    stderr = _closed_pipe()
    done = run_python("-m", "cavqed.cli", "budget", "--out", str(tmp_path / "out"),
                      stderr=stderr, check=False)
    os.close(stderr)
    assert done.returncode == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_closed_stdout_and_stderr_exit_4_and_keep_the_files(tmp_path):
    stdout, stderr = _closed_pipe(), _closed_pipe()
    done = run_pl("budget", tmp_path / "out", stdout=stdout, stderr=stderr, check=False)
    os.close(stdout)
    os.close(stderr)
    assert done.returncode == EXIT_IO
    assert sorted(os.listdir(tmp_path / "out")) == _FILES["budget"]


def _within(tree, keys):
    """The part of a config tree that `keys` lead to."""
    for key in keys:
        tree = tree[key]
    return tree


class TestTableConfig:
    """Tables S1-S3 are config sections of the paper fixture: an overlay
    replaces a table whole, and a bad cell exits 2 naming its dotted key."""

    def test_modes_override_reaches_report(self, tmp_path):
        tables = paper_tables()
        tables["cavity"]["modes"][0]["v_eff_lambda3"] = 2.60
        code, out = run_main(tmp_path, "purcell", config={"cavity": tables["cavity"]})
        assert code == EXIT_OK
        report = read_report(out, "purcell_report.json")
        assert report["modes"][0]["v_eff_lambda3_fixture"] == 2.60

    def test_overlay_replaces_the_mode_list(self, tmp_path):
        # cavity.mode_order must be a p of the table for every command
        [row] = [row for row in paper_tables()["cavity"]["modes"] if row["p"] == 7]
        code, out = run_main(tmp_path, "purcell",
                             config={"cavity": {"modes": [row], "mode_order": 7}})
        assert code == EXIT_OK
        assert [m["p"] for m in read_report(out, "purcell_report.json")["modes"]] == [7]

    @pytest.mark.parametrize("command, edit, message", [
        # a cell that is not a finite number would reach the report as NaN
        ("purcell", ("cavity", "modes", 1, "v_eff_lambda3", float("nan")),
         "config key cavity.modes[1].v_eff_lambda3 must be a positive number, got nan"),
        ("brightness", ("cavity", "modes", 2, "q_th", float("inf")),
         "config key cavity.modes[2].q_th must be a positive number, got inf"),
        # a mode order is a row key
        ("purcell", ("cavity", "modes", 1, "p", 7.5),
         "config key cavity.modes[1].p must be an integer >= 1, got 7.5"),
        ("budget", ("budget", "chains", "cavity_planar", "beamsplitter", "0.98"),
         "config key budget.chains.cavity_planar must be a nonempty JSON object of stage "
         "efficiencies in (0, 1], got {'beamsplitter': '0.98', 'cryostat_optics': 0.34, "
         "'path_other': 0.74, 'spectrometer_ccd': 0.098}"),
        ("purcell", ("cavity", "modes", 0, "note", "simulated"),
         "unknown config key cavity.modes[0].note"),
    ], ids=["nan-cell", "inf-cell", "fractional-p", "string-efficiency", "extra-column"])
    def test_bad_cell_names_its_key(self, tmp_path, capsys, command, edit, message):
        tables = paper_tables()
        *where, key, value = edit
        _within(tables, where)[key] = value
        code, out = run_main(tmp_path, command, config=tables)
        assert code == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["message"] == message
        assert not out.exists()

    @pytest.mark.parametrize("column", ["p", "v_eff_lambda3", "q_th", "q_exp", "p_subs_pct",
                                        "p_fiber_pct"])
    def test_missing_cell_is_required(self, tmp_path, capsys, column):
        # budget reads the exit probabilities of one row only; every row
        # must still be complete
        tables = paper_tables()
        del tables["cavity"]["modes"][3][column]
        code, out = run_main(tmp_path, "budget", config=tables)
        assert code == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["message"] == f"config key cavity.modes[3].{column} is required"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "purcell", "brightness", "budget",
                                         "lifetime", "saturation", "g2"])
    def test_repeated_p_is_config_error(self, tmp_path, capsys, command):
        # a second p = 6 row would otherwise overwrite the first; load
        # checks it whichever command runs
        tables = paper_tables()
        tables["cavity"]["modes"].append(dict(tables["cavity"]["modes"][0], q_exp=5000.0))
        code, out = run_main(tmp_path, command, config=tables)
        assert code == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["message"] == "config key cavity.modes[*].p: the mode orders " \
            "p must be distinct, got [6, 7, 8, 9, 6]"
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        ("purcell", "cavity.modes"),
        ("budget", "budget.extraction.cavity_fiber"),
        ("budget", "budget.chains.cavity_fiber"),
        ("budget", "budget.overall_quoted.cavity_planar"),
        ("saturation", "budget.overall_quoted.free_space"),
    ])
    def test_table_without_the_fixture_is_required(self, tmp_path, capsys, command, key):
        # the tables come with --fixture paper; a config file alone must
        # give every one that a command reads
        config = json.loads(fixtures.paper_defaults())
        *where, last = key.split(".")
        del _within(config, where)[last]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main([command, "--config", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["message"] == f"config key {key} is required"
        assert not out.exists()
