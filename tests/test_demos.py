"""Each demo script, and the README's quick start, runs to completion as a
user would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cavqed

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(tmp_path, *args):
    """Run a fresh interpreter in `tmp_path` and assert it exits 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(cavqed.__file__).parents[1]))
    done = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    run_python(tmp_path, str(demo))


def test_readme_quick_start_runs(tmp_path):
    # the first python block after the Quick start heading
    text = (ROOT / "README.md").read_text()
    start = text.index("```python\n", text.index("## Quick start")) + len("```python\n")
    run_python(tmp_path, "-c", text[start:text.index("```", start)])
