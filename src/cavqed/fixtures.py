"""Fixture tables: simulated cavity figures (mode volume, theoretical Q,
exit probabilities), the measured stage efficiencies of the three
collection paths, and the default emitter/cavity parameter set.

Fixtures ship with the package; the PL_FIXTURE_DIR environment variable
points the loaders at an alternative directory.
"""

import csv
import json
import os
from importlib import resources
from pathlib import Path

from .budget import EfficiencyChain, Stage

_PATHS = ("free_space", "cavity_planar", "cavity_fiber")


def fixture_path(name):
    """Resolve a fixture file, honoring PL_FIXTURE_DIR."""
    override = os.environ.get("PL_FIXTURE_DIR")
    if override:
        candidate = Path(override) / name
        if not candidate.exists():
            raise FileNotFoundError(f"fixture {name!r} not found in PL_FIXTURE_DIR={override}")
        return candidate
    return Path(str(resources.files("cavqed") / "fixtures" / name))


def load_table_s1():
    """Simulated/measured mode table, keyed by longitudinal order p.

    Columns: p, v_eff_lambda3, q_th, q_exp, p_subs_pct, p_fiber_pct.
    """
    path = fixture_path("table_s1.csv")
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows[int(row["p"])] = {
                "v_eff_lambda3": float(row["v_eff_lambda3"]),
                "q_th": float(row["q_th"]),
                "q_exp": float(row["q_exp"]),
                "p_subs_pct": float(row["p_subs_pct"]),
                "p_fiber_pct": float(row["p_fiber_pct"]),
            }
    if not rows:
        raise ValueError(f"{path}: no mode rows")
    return rows


def _load_stage_table(path):
    table = {name: [] for name in _PATHS}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for name in _PATHS:
                cell = row.get(name, "").strip()
                if cell:
                    table[name].append(Stage(row[list(row)[0]], float(cell)))
    return table


def load_table_s2():
    """Measured stage efficiencies per path.

    Returns (extractions, chains): the extraction-in-first-lens
    efficiency per path, and the ordered downstream chain (path optics
    plus detector) per path.
    """
    path = fixture_path("table_s2.csv")
    table = _load_stage_table(path)
    extractions = {}
    chains = {}
    for name in _PATHS:
        stages = table[name]
        if not stages or stages[0].name != "extraction_first_lens":
            raise ValueError(f"{path}: path {name} must start with extraction_first_lens")
        extractions[name] = stages[0].efficiency
        chains[name] = EfficiencyChain(name, tuple(stages[1:]))
    return extractions, chains


def load_table_s3():
    """Summary efficiencies per path: extraction, path-and-detector
    product, and their overall product, keyed by path name."""
    path = fixture_path("table_s3.csv")
    out = {name: {} for name in _PATHS}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = row[list(row)[0]]
            for name in _PATHS:
                cell = row.get(name, "").strip()
                if cell:
                    out[name][key] = float(cell)
    for name in _PATHS:
        for key in ("extraction_first_lens", "path_and_detector", "overall"):
            if key not in out[name]:
                raise ValueError(f"{path}: missing {key} for {name}")
    return out


def paper_defaults():
    """Default emitter/cavity/scheme parameter set used by `--fixture paper`."""
    with open(fixture_path("paper_defaults.json")) as fh:
        return json.load(fh)
