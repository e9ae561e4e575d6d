"""Each demo script runs to completion as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cavqed

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(Path(cavqed.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
