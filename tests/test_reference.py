"""Every output file against the committed benchmark reference.

The seven commands at the default seed, and `brightness`, `lifetime` and
`saturation` on the measured input sets of the reference seed, run
in-process; each output directory must match perfbench/reference/*.json.xz
through perfbench's own comparison (every CSV/JSON number within
check.REL_TOL of its column's largest |value|, SVGs byte for byte).  An
intended output change regenerates those files with
`python3 perfbench/check.py --write-reference`; an unintended one fails
here.
"""

import json
import os
import sys

import pytest

from cavqed.cli import EXIT_OK, main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import check  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["cold-cli", "reanalyze-measured"])
def test_outputs_match_the_reference(tmp_path, capsys, workload):
    reference = check.load_reference(check.family_of(workload))
    ops, _ = workloads.passes(workload, str(tmp_path), workloads.REFERENCE_INPUT_SEED)
    problems = []
    for op in ops:
        code = main(list(op.argv))
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, ""), op.label
        directory = workloads.out_dir_of(op)
        with open(os.path.join(directory, f"{op.command}_report.json")) as fh:
            assert json.loads(out)["report"] == json.load(fh), op.label
        result = check.compare_dir(directory, reference, check.reference_label(op.label))
        assert result["files"] > 0, op.label
        problems += result["problems"]
    assert problems == []
