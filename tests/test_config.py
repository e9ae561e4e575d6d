import copy
import json
import math
from pathlib import Path

import pytest

from cavqed import config, fixtures
from cavqed.cavity import mode_volume_gaussian
from cavqed.cli import EXIT_CONFIG, EXIT_OK

from conftest import paper_tables, run_main, run_python


# RFC 7396, Appendix A: the examples whose target and patch are both objects
@pytest.mark.parametrize("target, patch, result", [
    ({"a": "b"}, {"a": "c"}, {"a": "c"}),
    ({"a": "b"}, {"b": "c"}, {"a": "b", "b": "c"}),
    ({"a": "b"}, {"a": None}, {}),
    ({"a": "b", "b": "c"}, {"a": None}, {"b": "c"}),
    ({"a": ["b"]}, {"a": "c"}, {"a": "c"}),
    ({"a": "c"}, {"a": ["b"]}, {"a": ["b"]}),
    ({"a": {"b": "c"}}, {"a": {"b": "d", "c": None}}, {"a": {"b": "d"}}),
    ({"a": [{"b": "c"}]}, {"a": [1]}, {"a": [1]}),
    ({"e": None}, {"a": 1}, {"e": None, "a": 1}),
    ({}, {"a": {"bb": {"ccc": None}}}, {"a": {"bb": {}}}),
])
def test_merge_patch_rfc7396_examples(target, patch, result):
    before = copy.deepcopy((target, patch))
    assert config.merge_patch(target, patch) == result
    assert (target, patch) == before


def test_merge_patch_keeps_nulls_inside_arrays():
    # a null in an array is a value, as in a table row cell
    assert config.merge_patch({}, {"a": [{"b": None}, None]}) == {"a": [{"b": None}, None]}


def test_null_removes_a_fixture_stage(tmp_path):
    _, paper = run_main(tmp_path, "budget", name="paper")
    code, out = run_main(tmp_path, "budget",
                         config={"budget": {"chains": {"cavity_planar": {"beamsplitter": None}}}})
    assert code == EXIT_OK
    [before, after] = (json.loads((d / "budget_report.json").read_text())["overall_efficiency"]
                       for d in (paper, out))
    assert after["cavity_planar"] == pytest.approx(before["cavity_planar"] / 0.98, rel=1e-15)
    assert after["free_space"] == before["free_space"]


@pytest.mark.parametrize("command, overlay", [
    ("saturation", {"seed": None}),
    ("spectrum", {"analysis": {"spectrum": {"step_uev": None}}}),
    ("spectrum", {"analysis": {"spectrum": {"dw_window_uev": None}}}),
], ids=["seed", "step", "derived-window"])
def test_null_is_the_default(tmp_path, command, overlay):
    _, paper = run_main(tmp_path, command, name="paper")
    code, out = run_main(tmp_path, command, config=overlay)
    assert code == EXIT_OK
    names = sorted(path.name for path in paper.iterdir())
    assert sorted(path.name for path in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (paper / name).read_bytes(), name


@pytest.mark.parametrize("overlay", [
    {"emitter": {"wavelength_nm": None}},
    {"emitter": None},
], ids=["key", "section"])
def test_null_on_a_required_key_is_required(tmp_path, capsys, overlay):
    code, out = run_main(tmp_path, "spectrum", config=overlay)
    assert code == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["message"] == "config key emitter.wavelength_nm is required"
    assert not out.exists()


def test_null_cell_in_a_table_row_fails_its_rule(tmp_path, capsys):
    code, out = run_main(tmp_path, "purcell", config=paper_tables(1, q_exp=None))
    assert code == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["message"] \
        == "config key cavity.modes[1].q_exp must be a positive number, got None"
    assert not out.exists()


def test_every_default_passes_its_rule():
    def leaves(table):
        for entry in table.values():
            if isinstance(entry, list):  # a table: its one row section
                entry = entry[0]
            yield from leaves(entry) if isinstance(entry, dict) else [entry]

    for default, (what, test) in leaves(config.CONFIG_KEYS):
        assert default in (config.REQUIRED, None) or test(default), (default, what)


def test_paper_fixture_restates_no_default():
    # each default lives in CONFIG_KEYS alone; JSON gives a list where a
    # default is a tuple
    def restated(tree, table, prefix=""):
        for key, value in tree.items():
            entry = table[key]
            if isinstance(entry, dict):
                yield from restated(value, entry, f"{prefix}{key}.")
            elif isinstance(entry, list):
                for index, row in enumerate(value):
                    yield from restated(row, entry[0], f"{prefix}{key}[{index}].")
            elif value == (list(entry[0]) if isinstance(entry[0], tuple) else entry[0]):
                yield prefix + key

    assert list(restated(json.loads(fixtures.paper_defaults()), config.CONFIG_KEYS)) == []


def test_every_relation_key_is_recorded(monkeypatch):
    # a relation whose key the walk does not record is skipped, so a
    # misspelt key would switch its relation off without a word
    recorded = []
    monkeypatch.setattr(config, "_check_relation", lambda flat, *relation: recorded.append(flat))
    config.load("paper")
    assert [key for keys, _, _ in config.RELATIONS for key in keys
            if key.replace("[]", "[0]") not in recorded[0]] == []


def test_every_overlay_ends_in_a_documented_exit():
    # one child process runs the whole boundary table: each value just
    # inside and just outside a key's rule, and the special values, on
    # --fixture paper, under every command that reads the key; a value
    # outside the rule must exit 2 naming the key.  A path's values inside
    # its rule are the input files derived from the paper run's own
    done = run_python(str(Path(__file__).with_name("config_boundary.py")))
    result = json.loads(done.stdout)
    assert result["cases"]["config"] > 1000
    assert result["cases"]["input file"] == 91
    assert result["failed"] == []


# a config that passes every per-key rule but that no command can run:
# (command, overlay, keys its message names)
@pytest.mark.parametrize("command, overlay, keys", [
    ("lifetime", {"measured": {"decay_ratio": 0.5}}, ["measured.decay_ratio"]),
    ("purcell", {"measured": {"decay_ratio": 0.5}}, ["measured.decay_ratio"]),
    ("spectrum", {"analysis": {"spectrum": {"step_uev": 40}}},
     ["analysis.spectrum.step_uev", "emitter.zpl_fwhm_uev"]),
    ("spectrum", {"analysis": {"spectrum": {"step_uev": 1e300}}},
     ["analysis.spectrum.step_uev", "emitter.zpl_fwhm_uev"]),
    ("spectrum", {"analysis": {"spectrum": {"half_span_uev": 10}}},
     ["analysis.spectrum.half_span_uev", "emitter.zpl_fwhm_uev"]),
    # brightness samples the spectrum's grid
    ("brightness", {"analysis": {"spectrum": {"half_span_uev": 10}}},
     ["analysis.spectrum.half_span_uev", "emitter.zpl_fwhm_uev"]),
    ("purcell", paper_tables(0, q_exp=60000.0), ["cavity.modes[0].q_exp", "cavity.modes[0].q_th"]),
    ("purcell", {"cavity": {"radius_of_curvature_um": 1}},
     ["cavity.modes[0].p", "emitter.wavelength_nm", "cavity.radius_of_curvature_um"]),
    ("spectrum", {"emitter": {"wavelength_nm": 1e-320}}, ["emitter.wavelength_nm"]),
    ("spectrum", {"emitter": {"sideband": {"cutoff_uev": 1e-300}}},
     ["emitter.sideband.cutoff_uev", "analysis.spectrum.step_uev"]),
    ("lifetime", {"analysis": {"lifetime": {"bin_ps": 1e6}}},
     ["emitter.lifetime_fs_ps", "analysis.lifetime.bin_ps"]),
    ("lifetime", {"analysis": {"lifetime": {"peak_counts": 1e300}}},
     ["analysis.lifetime.peak_counts"]),
    # a row that spectrum does not use and brightness sweeps
    ("brightness", paper_tables(1, q_exp=1e6, q_th=2e6),
     ["analysis.spectrum.step_uev", "cavity.modes[1].q_exp"]),
    ("g2", {"g2_scheme": {"k_deshelve_uev": 0}},
     ["g2_scheme.k_shelve_uev", "g2_scheme.k_deshelve_uev"]),
    # a grid past MAX_GRID_POINTS, which would exhaust the memory
    ("spectrum", {"analysis": {"spectrum": {"step_uev": 1e-7}}},
     ["analysis.spectrum.half_span_uev", "analysis.spectrum.step_uev"]),
    ("g2", {"analysis": {"g2": {"tau_step_ps": 1e-9}}},
     ["analysis.g2.tau_span_ps", "analysis.g2.tau_step_ps"]),
    ("lifetime", {"analysis": {"lifetime": {"bin_ps": 1e-9}}},
     ["emitter.lifetime_fs_ps", "analysis.lifetime.bin_ps"]),
    ("saturation", {"analysis": {"saturation": {"n_points": 10 ** 11}}},
     ["analysis.saturation.n_points"]),
])
def test_unrunnable_config_names_its_keys(tmp_path, capsys, command, overlay, keys):
    code, out = run_main(tmp_path, command, config=overlay)
    assert code == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    message = json.loads(line)["message"]
    assert all(key in message for key in keys), message
    assert not out.exists()


def test_cavity_length_relation_and_mode_volume_share_the_stability_edge(tmp_path, capsys):
    # a radius equal to the p = 6 length fails the config's length relation
    # and mode_volume_gaussian's own check alike; one float above it, both pass
    edge = 6 * 1275.0 * 1e-3 / 2.0
    assert edge == 3.825
    tables = paper_tables()
    tables["cavity"]["modes"] = [row for row in tables["cavity"]["modes"] if row["p"] == 6]
    tables["cavity"]["radius_of_curvature_um"] = edge
    code, out = run_main(tmp_path, "purcell", config=tables, name="at-edge")
    assert code == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    message = json.loads(line)["message"]
    keys = ["cavity.modes[0].p", "emitter.wavelength_nm", "cavity.radius_of_curvature_um"]
    assert all(key in message for key in keys), message
    assert not out.exists()
    with pytest.raises(ValueError, match="unstable"):
        mode_volume_gaussian(1275.0, 1.0, edge, 6)

    tables["cavity"]["radius_of_curvature_um"] = math.nextafter(edge, math.inf)
    code, out = run_main(tmp_path, "purcell", config=tables, name="above-edge")
    assert code == EXIT_OK
    [mode] = json.loads((out / "purcell_report.json").read_text())["modes"]
    assert 0 < mode["v_eff_lambda3_gaussian"] < math.inf
