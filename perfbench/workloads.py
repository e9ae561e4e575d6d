"""Workload definitions shared by run.py, the worker and the checks.

A workload is a fixed sequence of passes; a pass is a list of operations
and one operation is one `pl <command>` invocation.  Every run starts with
a reference pass whose outputs are compared against the committed
reference files, then runs timed passes whose inputs come from --seed.

Only the standard library is imported at module level, so the in-process
worker can import this module before `cavqed.cli` without shifting any
import cost out of the measured set-up.
"""

import json
import os
import shutil
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Fixed command order of one synthetic pass (cold-cli and batch-synthetic).
COMMANDS = ("spectrum", "purcell", "brightness", "lifetime", "saturation", "g2", "budget")
# Commands whose outputs do not depend on --seed: every run can compare
# them against the reference, whatever seed it was given.
SEED_FREE = ("spectrum", "purcell", "g2", "budget")
MEASURED_COMMANDS = ("brightness", "lifetime", "saturation")

# Seed of the input sets stored in reference/measured.json.xz; the synthetic
# reference is cavqed's own default seed (the reference pass omits --seed).
REFERENCE_INPUT_SEED = 0
N_MEASURED_SETS = 4

WORKLOADS = ("cold-cli", "batch-synthetic", "reanalyze-measured")

EXPECTED_FILES = {
    "spectrum": ("fs_spectrum.csv", "s_emi_tilde.csv", "s_abs_tilde.csv",
                 "spectrum.svg", "spectrum_report.json"),
    "purcell": ("purcell_report.json", "purcell.svg"),
    "brightness": ("brightness_report.json",)
    + tuple(f"{kind}_p{p}.csv" for p in (6, 7, 8, 9) for kind in ("envelope", "beta")),
    "lifetime": ("decay_fs.csv", "decay_cavity.csv", "lifetime.svg", "lifetime_report.json"),
    "saturation": ("saturation.csv", "saturation.svg", "saturation_report.json"),
    "g2": ("g2.csv", "g2.svg", "g2_report.json"),
    "budget": ("budget_report.json",),
}
EXPECTED_MEASURED_FILES = {
    "brightness": ("brightness_report.json",),
    "lifetime": EXPECTED_FILES["lifetime"],
    "saturation": EXPECTED_FILES["saturation"],
}


@dataclass(frozen=True)
class Op:
    """One `pl` invocation: `label` names its output directory."""

    label: str
    command: str
    argv: tuple
    expected: tuple
    reference: bool = False
    truth: dict = field(default=None, compare=False)


def pass_seed(seed, index):
    """cavqed seed of timed pass `index` (1-based) of a run seeded `seed`."""
    # splitmix-style integer hash: stable, stdlib only, and never the
    # cavqed default seed by construction of the reference pass
    x = (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & (2**64 - 1)
    x ^= x >> 29
    return int(x % (2**31 - 1))


def out_dir(work, reference, label):
    return os.path.join(work, "out", "ref" if reference else "run", label)


def synthetic_pass(work, seed, index, parallel_brightness=None):
    """Ops of pass `index` (0 is the reference pass at cavqed's default seed)."""
    reference = index == 0
    ops = []
    for command in COMMANDS:
        label = command
        argv = [command, "--fixture", "paper"]
        if not reference:
            argv += ["--seed", str(pass_seed(seed, index))]
        if command == "brightness" and parallel_brightness:
            argv += ["--parallel", str(parallel_brightness)]
            label = f"brightness-p{parallel_brightness}"
        argv += ["--out", out_dir(work, reference, label)]
        ops.append(Op(label, command, tuple(argv), EXPECTED_FILES[command], reference))
    return ops


def batch_pass(work, seed, index):
    """batch-synthetic: the seven commands; brightness fans out to two
    threads on odd passes.  The reference pass runs both variants, so the
    --parallel 2 outputs are checked against the same reference files."""
    if index == 0:
        ops = synthetic_pass(work, seed, 0)
        return ops + [op for op in synthetic_pass(work, seed, 0, parallel_brightness=2)
                      if op.command == "brightness"]
    return synthetic_pass(work, seed, index, parallel_brightness=2 if index % 2 else None)


def measured_pass(work, sets, reference):
    """reanalyze-measured: the three measured-input commands on each set."""
    ops = []
    for s in sets:
        for command in MEASURED_COMMANDS:
            label = f"set{s['index']}-{command}"
            argv = (command, "--fixture", "paper", "--config", s["config"],
                    "--out", out_dir(work, reference, label))
            ops.append(Op(label, command, argv, EXPECTED_MEASURED_FILES[command],
                          reference, truth=s["truth"]))
    return ops


def write_measured_sets(work, seed, reference):
    """Generate the measured input sets for `seed` under `work`; returns
    their descriptions (config path and generator truth), which are also
    saved as sets.json for the worker processes."""
    from inputs import generate_set  # numpy is only needed here

    base = _sets_dir(work, seed, reference)
    os.makedirs(base, exist_ok=True)
    sets = []
    for index in range(N_MEASURED_SETS):
        files, config, truth = generate_set(seed, index, N_MEASURED_SETS)
        set_dir = os.path.join(base, f"set{index}")
        os.makedirs(set_dir, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(set_dir, name), "w") as fh:
                fh.write(text)
        for section, key, name in (("brightness", "envelope_csv", "envelope.csv"),
                                   ("lifetime", "fs_trace_csv", "decay_fs.csv"),
                                   ("lifetime", "cavity_trace_csv", "decay_cavity.csv"),
                                   ("saturation", "curve_csv", "saturation.csv")):
            config["analysis"][section][key] = os.path.join(set_dir, name)
        config_path = os.path.join(set_dir, "config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)
        sets.append({"index": index, "config": config_path, "truth": truth})
    with open(os.path.join(base, "sets.json"), "w") as fh:
        json.dump(sets, fh)
    return sets


def _sets_dir(work, seed, reference):
    return os.path.join(work, "inputs", "ref" if reference else f"seed{seed}")


def _read_sets(work, seed, reference):
    with open(os.path.join(_sets_dir(work, seed, reference), "sets.json")) as fh:
        return json.load(fh)


def passes(workload, work, seed, generate=True):
    """Return (reference_ops, timed_pass_fn) for a workload.

    timed_pass_fn(index) gives the ops of timed pass index >= 1.  For
    reanalyze-measured, generate=True writes the input sets under `work`;
    generate=False reuses the sets an earlier call wrote.
    """
    if workload in ("cold-cli", "batch-synthetic"):
        make = synthetic_pass if workload == "cold-cli" else batch_pass
        return make(work, seed, 0), lambda index: make(work, seed, index)
    if workload == "reanalyze-measured":
        sets = write_measured_sets if generate else _read_sets
        ref_ops = measured_pass(work, sets(work, REFERENCE_INPUT_SEED, True), True)
        timed = measured_pass(work, sets(work, seed, False), False)
        return ref_ops, lambda index: timed
    raise ValueError(f"unknown workload {workload!r}")


def clear(path):
    shutil.rmtree(path, ignore_errors=True)


def out_dir_of(op):
    return op.argv[op.argv.index("--out") + 1]


def missing_outputs(op):
    """Expected files of `op` that are absent or empty."""
    directory = out_dir_of(op)
    missing = []
    for name in op.expected:
        path = os.path.join(directory, name)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            missing.append(name)
    return missing
