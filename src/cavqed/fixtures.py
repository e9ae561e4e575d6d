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


def _read_table(name):
    """Fixture CSV `name` as {row key: {column: float}}, keyed by its first
    column in file order; blank cells are left out."""
    path = fixture_path(name)
    table = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            (key_column, key), *cells = row.items()
            if key in table:
                raise ValueError(f"{path}: {key_column} {key!r} appears more than once")
            if None in row:
                raise ValueError(f"{path}: {key_column} {key!r} has more cells than the header")
            table[key] = {column: float(cell) for column, cell in cells if cell and cell.strip()}
    return table


def load_table_s1():
    """Simulated/measured mode table, keyed by longitudinal order p.

    Columns: p, v_eff_lambda3, q_th, q_exp, p_subs_pct, p_fiber_pct.
    """
    table = _read_table("table_s1.csv")
    if not table:
        raise ValueError("table_s1.csv: no mode rows")
    return {int(p): row for p, row in table.items()}


def load_table_s2():
    """Measured stage efficiencies per path.

    Returns (extractions, chains): the extraction-in-first-lens
    efficiency per path, and the ordered downstream chain (path optics
    plus detector) per path.
    """
    table = _read_table("table_s2.csv")
    extractions = {}
    chains = {}
    for name in _PATHS:
        stages = [Stage(stage, row[name]) for stage, row in table.items() if name in row]
        if not stages or stages[0].name != "extraction_first_lens":
            raise ValueError(f"table_s2.csv: path {name} must start with extraction_first_lens")
        extractions[name] = stages[0].efficiency
        chains[name] = EfficiencyChain(name, tuple(stages[1:]))
    return extractions, chains


def load_table_s3():
    """Summary efficiencies per path: extraction, path-and-detector
    product, and their overall product, keyed by path name."""
    table = _read_table("table_s3.csv")
    out = {name: {key: row[name] for key, row in table.items() if name in row}
           for name in _PATHS}
    for name in _PATHS:
        for key in ("extraction_first_lens", "path_and_detector", "overall"):
            if key not in out[name]:
                raise ValueError(f"table_s3.csv: missing {key} for {name}")
    return out


def paper_defaults():
    """Default emitter/cavity/scheme parameter set used by `--fixture paper`."""
    with open(fixture_path("paper_defaults.json")) as fh:
        return json.load(fh)
