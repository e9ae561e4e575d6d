"""Fixture tables: simulated cavity figures (mode volume, theoretical Q,
exit probabilities), the measured stage efficiencies of the three
collection paths, and the paper's parameter set.

Fixtures ship with the package; the PL_FIXTURE_DIR environment variable
points the loaders at an alternative directory.
"""

import csv
import json
import math
import os
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
    return Path(__file__).parent / "fixtures" / name


def _cell(path, key_column, key, column, cell):
    """The finite number a fixture cell holds; anything else is a
    ValueError naming the file, the row and the column."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}: {key_column} {key!r} has {column} {cell!r}, "
                         "not a finite number")
    return value


def _read_table(name, required=()):
    """Fixture CSV `name` as {row key: {column: float}}, keyed by its first
    column in file order; every other cell must be a finite number.  Blank
    cells are left out, except that every row must have a value in each
    `required` column."""
    path = fixture_path(name)
    table = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            (key_column, key), *cells = row.items()
            if key in table:
                raise ValueError(f"{path}: {key_column} {key!r} appears more than once")
            if None in row:
                raise ValueError(f"{path}: {key_column} {key!r} has more cells than the header")
            table[key] = {column: _cell(path, key_column, key, column, cell)
                          for column, cell in cells if cell and cell.strip()}
            for column in required:
                if column not in table[key]:
                    raise ValueError(f"{path}: {key_column} {key!r} has no {column} value")
    return table


def load_table_s1():
    """Simulated/measured mode table, keyed by longitudinal order p.

    Columns: p, v_eff_lambda3, q_th, q_exp, p_subs_pct, p_fiber_pct; a
    row missing any of them is a ValueError naming the file, p and column,
    and so is a p that is not an integer >= 1 or that repeats another.
    """
    table = _read_table("table_s1.csv", required=(
        "v_eff_lambda3", "q_th", "q_exp", "p_subs_pct", "p_fiber_pct"))
    if not table:
        raise ValueError("table_s1.csv: no mode rows")
    path = fixture_path("table_s1.csv")
    modes = {}
    for p, row in table.items():
        try:
            order = int(p)
        except ValueError:
            order = 0
        if order < 1:
            raise ValueError(f"{path}: p {p!r} is not an integer >= 1")
        if order in modes:
            raise ValueError(f"{path}: p {p!r} appears more than once")
        modes[order] = row
    return modes


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
    """The `--fixture paper` values that no config default gives; read by
    cli.load_config alone, which checks them and adds the defaults."""
    with open(fixture_path("paper_defaults.json")) as fh:
        return json.load(fh)
