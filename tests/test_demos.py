"""Each demo script, and the README's quick start, runs to completion as a
user would run it."""

from pathlib import Path

import pytest

from conftest import run_python

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    run_python(str(demo), cwd=tmp_path)


def test_readme_quick_start_runs(tmp_path):
    # the first python block after the Quick start heading
    text = (ROOT / "README.md").read_text()
    start = text.index("```python\n", text.index("## Quick start")) + len("```python\n")
    run_python("-c", text[start:text.index("```", start)], cwd=tmp_path)
