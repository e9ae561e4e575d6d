"""Tests of the benchmark itself (not of cavqed).

    python3 -m pytest -q perfbench/bench_tests.py

The file name keeps them out of the repository's own test run; each
workload is run for two seconds per mode, so the file takes about a
minute.
"""

import json
import lzma
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "2",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert report["manifest"]["traced"] == bool(trace)
    assert report["checks"]["reference"]["files"] > 0
    assert report["max_rel_err"] <= check.REL_TOL


def _reference_without_svg(label):
    reference = check.load_reference("synthetic")
    return {k: v for k, v in reference.items()
            if k.startswith(label + "/") and not k.endswith(".svg")}


def _write(directory, reference, label):
    os.makedirs(directory)
    for key, text in reference.items():
        with open(os.path.join(directory, key[len(label) + 1:]), "w") as fh:
            fh.write(text)


def _perturb_largest(text, rel):
    """Scale the largest |value| of the second CSV column by (1 + rel)."""
    header, _, body = text.partition("\n")
    rows = [line.split(",") for line in body.splitlines()]
    i = max(range(len(rows)), key=lambda k: abs(float(rows[k][1])))
    rows[i][1] = repr(float(rows[i][1]) * (1.0 + rel))
    return header + "\n" + "".join(",".join(r) + "\n" for r in rows)


def test_reference_gate_is_live(tmp_path):
    label = "spectrum"
    reference = _reference_without_svg(label)
    _write(tmp_path / label, reference, label)
    clean = check.compare_dir(tmp_path / label, reference, label)
    assert clean["problems"] == [] and clean["identical"] == clean["files"] == len(reference)

    key = f"{label}/s_emi_tilde.csv"
    perturbed = dict(reference, **{key: _perturb_largest(reference[key], 1e-9)})
    result = check.compare_dir(tmp_path / label, perturbed, label)
    assert len(result["problems"]) == 1 and key in result["problems"][0]
    assert 0.5e-9 < result["max_rel_err"] < 2e-9

    json_key = f"{label}/spectrum_report.json"
    report = json.loads(reference[json_key])
    report["kappa_uev"] *= 1.0 + 1e-9
    perturbed = dict(reference, **{json_key: json.dumps(report)})
    assert check.compare_dir(tmp_path / label, perturbed, label)["problems"]


def test_reference_files_are_compressed_json():
    for family in ("synthetic", "measured"):
        with open(check.reference_path(family), "rb") as fh:
            assert json.loads(lzma.decompress(fh.read()))


def test_measured_inputs_do_not_import_cavqed():
    code = ("import sys; sys.path.insert(0, %r); import inputs; "
            "a = inputs.generate_set(7, 1, 4); b = inputs.generate_set(7, 1, 4); "
            "assert a[0] == b[0]; assert inputs.generate_set(8, 1, 4)[0] != a[0]; "
            "assert not any(m.startswith('cavqed') for m in sys.modules)" % HERE)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cold-cli",
                           "--seed", "1", "--seconds", "2", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_has_ten_samples_beyond_it():
    value, percentile = metrics.tail(list(range(100)))
    assert value == 89 and percentile == 90.0
    assert metrics.tail([3.0, 1.0]) == (3.0, 100.0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [(1, 0, 7, "parent", 0.0, 10.0, None),
             (2, 1, 7, "a", 1.0, 4.0, None),
             (3, 1, 7, "b", 2.0, 6.0, None),
             (1, 0, 8, "other-op", 0.0, 1.0, None)]
    own = metrics.self_times(spans)
    assert own[7, 1] == pytest.approx(5.0)
    assert own[8, 1] == pytest.approx(1.0)
