import copy
import json

import pytest

from cavqed import config, fixtures
from cavqed.cli import EXIT_CONFIG, EXIT_OK, main


def run(tmp_path, command, overlay=None, name="run"):
    """(exit code, out dir) of `pl <command> --fixture paper` with the
    config overlay `overlay` (None: no --config)."""
    out = tmp_path / name
    argv = [command, "--fixture", "paper", "--out", str(out)]
    if overlay is not None:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(overlay))
        argv += ["--config", str(path)]
    return main(argv), out


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
    _, paper = run(tmp_path, "budget", name="paper")
    code, out = run(tmp_path, "budget",
                    {"budget": {"chains": {"cavity_planar": {"beamsplitter": None}}}})
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
    _, paper = run(tmp_path, command, name="paper")
    code, out = run(tmp_path, command, overlay)
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
    code, out = run(tmp_path, "spectrum", overlay)
    assert code == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["message"] == "config key emitter.wavelength_nm is required"
    assert not out.exists()


def test_null_cell_in_a_table_row_fails_its_rule(tmp_path, capsys):
    rows = [dict(row) for row in config.load("paper")["cavity"]["modes"]]
    rows[1]["q_exp"] = None
    code, out = run(tmp_path, "purcell", {"cavity": {"modes": rows}})
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
