"""Output checks: comparison against the committed reference, and the
checks used where no reference exists (timed passes on other seeds).

Reference files live in reference/<family>.json.xz, one xz-compressed JSON
object per family ("synthetic" for the seven `--fixture paper` commands at
cavqed's default seed, "measured" for the reanalysis input sets of seed
REFERENCE_INPUT_SEED).  It maps "<label>/<file>" to the file's text for
CSV and JSON outputs and to its SHA-256 for SVG plots, which are compared
byte for byte only.

    python3 perfbench/check.py --write-reference

regenerates both files from the checkout's `src/`.
"""

import hashlib
import io
import json
import lzma
import math
import os
import sys

import numpy as np

import workloads

REL_TOL = 1e-12

# Generator truth the fits must recover on seeds without a reference.
# Synthetic sweeps use the paper defaults (decay_ratio 1.19, I_sat 1768,
# P_sat 1000); measured sets carry their own truth from inputs.py.
TRUTH_TOL = {"g_uev": 0.10, "tau_fs_ps": 0.03, "decay_ratio": 0.03,
             "i_sat": 0.05, "p_sat": 0.10}
SYNTHETIC_TRUTH = {"decay_ratio": 1.19, "i_sat": 1768.0, "p_sat": 1000.0}


def reference_path(family):
    return os.path.join(workloads.REFERENCE_DIR, f"{family}.json.xz")


def load_reference(family):
    with lzma.open(reference_path(family), "rt") as fh:
        return json.load(fh)


def family_of(workload):
    return "measured" if workload == "reanalyze-measured" else "synthetic"


def reference_label(label):
    """Reference directory of an op label (both brightness variants share one)."""
    return "brightness" if label.startswith("brightness-p") else label


# ---------------------------------------------------------------------------
# comparison against the reference

def _csv_array(text):
    header, _, body = text.partition("\n")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2) if body.strip() \
        else np.empty((0, header.count(",") + 1))
    return header, data


def _csv_error(out_text, ref_text):
    """Largest deviation per column relative to that column's largest |value|."""
    out_header, out = _csv_array(out_text)
    ref_header, ref = _csv_array(ref_text)
    if out_header != ref_header:
        return None, f"header {out_header!r} != {ref_header!r}"
    if out.shape != ref.shape:
        return None, f"shape {out.shape} != {ref.shape}"
    if not np.all(np.isfinite(out)):
        return None, "non-finite value"
    worst = 0.0
    for j in range(ref.shape[1]):
        scale = float(np.max(np.abs(ref[:, j]))) if ref.shape[0] else 0.0
        diff = float(np.max(np.abs(out[:, j] - ref[:, j]))) if ref.shape[0] else 0.0
        worst = max(worst, diff / scale if scale > 0 else diff)
    return worst, None


def _flatten(value, path, out):
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", out)
    else:
        out[path] = value


def _column(path):
    """JSON leaves that differ only in list index form one column."""
    parts = []
    for piece in path.split("["):
        parts.append(piece.split("]", 1)[1] if "]" in piece else piece)
    return "[*]".join(parts)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_error(out_text, ref_text):
    out_leaves, ref_leaves = {}, {}
    _flatten(json.loads(out_text), "", out_leaves)
    _flatten(json.loads(ref_text), "", ref_leaves)
    if out_leaves.keys() != ref_leaves.keys():
        return None, f"keys differ: {sorted(out_leaves.keys() ^ ref_leaves.keys())[:4]}"
    scales = {}
    for path, value in ref_leaves.items():
        if _is_number(value):
            col = _column(path)
            scales[col] = max(scales.get(col, 0.0), abs(value))
    worst = 0.0
    for path, ref in ref_leaves.items():
        out = out_leaves[path]
        if _is_number(ref) and _is_number(out):
            if not math.isfinite(out):
                return None, f"{path} is not finite"
            scale = scales[_column(path)]
            diff = abs(out - ref)
            worst = max(worst, diff / scale if scale > 0 else diff)
        elif out != ref:
            return None, f"{path}: {out!r} != {ref!r}"
    return worst, None


def compare_dir(directory, reference, ref_label):
    """Compare one output directory with the reference files of `ref_label`.

    Returns {"files", "identical", "max_rel_err", "problems"}.
    """
    prefix = ref_label + "/"
    expected = {key[len(prefix):]: value for key, value in reference.items()
                if key.startswith(prefix)}
    present = set(os.listdir(directory)) if os.path.isdir(directory) else set()
    result = {"files": 0, "identical": 0, "max_rel_err": 0.0, "problems": []}
    for name in sorted(present ^ set(expected)):
        state = "missing" if name in expected else "unexpected"
        result["problems"].append(f"{ref_label}/{name}: {state}")
    for name in sorted(present & set(expected)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        result["files"] += 1
        if name.endswith(".svg"):
            if hashlib.sha256(data).hexdigest() == expected[name]:
                result["identical"] += 1
            continue
        text = data.decode()
        if text == expected[name]:
            result["identical"] += 1
            continue
        compare = _csv_error if name.endswith(".csv") else _json_error
        try:
            err, problem = compare(text, expected[name])
        except ValueError as exc:
            err, problem = None, f"unparsable: {exc}"
        if problem is None and err > REL_TOL:
            problem = f"relative error {err:.3g} > {REL_TOL:g}"
        if problem is not None:
            result["problems"].append(f"{ref_label}/{name}: {problem}")
        if err is not None:
            result["max_rel_err"] = max(result["max_rel_err"], err)
    return result


def merge(results):
    total = {"files": 0, "identical": 0, "max_rel_err": 0.0, "problems": []}
    for r in results:
        total["files"] += r["files"]
        total["identical"] += r["identical"]
        total["max_rel_err"] = max(total["max_rel_err"], r["max_rel_err"])
        total["problems"] += r["problems"]
    return total


# ---------------------------------------------------------------------------
# checks without a reference

def _report(directory, command):
    with open(os.path.join(directory, f"{command}_report.json")) as fh:
        return json.load(fh)


def _rel(value, truth):
    return abs(value / truth - 1.0)


def truth_problems(op, directory):
    """Fit results of a seed-dependent op against the generator truth."""
    report = _report(directory, op.command)
    problems = []

    def expect(name, value, truth):
        if not _rel(value, truth) <= TRUTH_TOL[name]:
            problems.append(f"{op.label}: {name} {value:.6g} vs truth {truth:.6g} "
                            f"(tolerance {TRUTH_TOL[name]:g})")

    truth = op.truth or SYNTHETIC_TRUTH
    if op.command == "brightness":
        if op.truth:
            expect("g_uev", report["fit"]["g_ueV"], truth["g_uev"])
            fits = [report["fit"]]
        else:
            for mode in report["modes"]:
                expect("g_uev", mode["fit"]["g_ueV"], mode["g_true_uev"])
            fits = [m["fit"] for m in report["modes"]]
        problems += [f"{op.label}: envelope fit flagged {f['flag']!r}" for f in fits if f["flag"]]
    elif op.command == "lifetime":
        if op.truth:
            expect("tau_fs_ps", report["free_space"]["tau2_ps"], truth["tau_fs_ps"])
        expect("decay_ratio", report["lifetime_ratio"], truth["decay_ratio"])
    elif op.command == "saturation":
        expect("i_sat", report["i_sat"], truth["i_sat"])
        expect("p_sat", report["p_sat"], truth["p_sat"])
    return problems


def well_formed_problems(op, directory):
    """Every expected file present; CSVs and JSON parse to finite numbers;
    every reported fit converged."""
    problems = [f"{op.label}/{name}: missing" for name in workloads.missing_outputs(op)]
    if problems:
        return problems
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path) as fh:
            text = fh.read()
        try:
            if name.endswith(".csv"):
                _, data = _csv_array(text)
                if data.shape[0] < 2 or not np.all(np.isfinite(data)):
                    problems.append(f"{op.label}/{name}: fewer than 2 rows or non-finite")
            elif name.endswith(".json"):
                leaves = {}
                _flatten(json.loads(text), "", leaves)
                for path_, value in leaves.items():
                    if _is_number(value) and not math.isfinite(value):
                        problems.append(f"{op.label}/{name}{path_}: not finite")
                    if path_.endswith(".converged") and value is not True:
                        problems.append(f"{op.label}/{name}{path_}: fit did not converge")
        except ValueError as exc:
            problems.append(f"{op.label}/{name}: unparsable: {exc}")
    return problems


def check_run(workload, ref_ops, last_ops):
    """Check the reference pass and the last timed pass of a run.

    Returns a summary naming which check covered which ops.
    """
    reference = load_reference(family_of(workload))
    ref = [compare_dir(workloads.out_dir_of(op), reference, reference_label(op.label))
           for op in ref_ops]
    seed_free, seeded = [], []
    for op in last_ops:
        directory = workloads.out_dir_of(op)
        if workload != "reanalyze-measured" and op.command in workloads.SEED_FREE:
            seed_free.append(compare_dir(directory, reference, reference_label(op.label)))
        else:
            seeded.append(well_formed_problems(op, directory) or truth_problems(op, directory))
    failed_ops = sum(1 for r in ref + seed_free if r["problems"]) + sum(1 for p in seeded if p)
    n_seed_free = len(seed_free)
    ref, seed_free = merge(ref), merge(seed_free)
    problems = ref["problems"] + seed_free["problems"] + [p for ps in seeded for p in ps]
    return {
        "failed_ops": failed_ops,
        "reference": {
            "check": f"every CSV/JSON number within {REL_TOL:g} of the committed "
                     "reference, relative to its column's largest |value|",
            "ops": len(ref_ops), "files": ref["files"], "byte_identical": ref["identical"],
            "max_rel_err": ref["max_rel_err"],
        },
        "last_timed_pass": {
            "seed_free_vs_reference": {"ops": n_seed_free, "files": seed_free["files"],
                                       "byte_identical": seed_free["identical"],
                                       "max_rel_err": seed_free["max_rel_err"]},
            "seeded": {
                "check": "expected files present, CSV/JSON finite, fits converged, "
                         f"fit parameters within {TRUTH_TOL} of the generator truth",
                "ops": len(seeded),
            },
        },
        "max_rel_err": max(ref["max_rel_err"], seed_free["max_rel_err"]),
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# reference writer

def collect(ops):
    files = {}
    for op in ops:
        directory = workloads.out_dir_of(op)
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as fh:
                data = fh.read()
            key = f"{reference_label(op.label)}/{name}"
            files[key] = (hashlib.sha256(data).hexdigest() if name.endswith(".svg")
                          else data.decode())
    return files


def write_reference(root):
    """Run the reference passes in-process and store their outputs."""
    import contextlib

    sys.path.insert(0, os.path.join(root, "src"))
    import cavqed.cli as cli

    work = os.path.join(root, ".perfbench_work", "reference")
    workloads.clear(work)
    for workload, family in (("cold-cli", "synthetic"), ("reanalyze-measured", "measured")):
        ref_ops, _ = workloads.passes(workload, work, workloads.REFERENCE_INPUT_SEED)
        for op in ref_ops:
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(list(op.argv)) != 0:
                    raise SystemExit(f"reference op {op.label} failed")
        payload = json.dumps(collect(ref_ops), sort_keys=True).encode()
        with open(reference_path(family), "wb") as fh:
            fh.write(lzma.compress(payload, preset=9 | lzma.PRESET_EXTREME))
    workloads.clear(work)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        raise SystemExit("usage: python3 perfbench/check.py --write-reference")
    write_reference(os.getcwd())
