"""The paper's parameter set, shipped with the package as one JSON config:
the emitter and measured values, the simulated cavity modes of table S1
(`cavity.modes`), and the stage and overall efficiencies of tables S2 and
S3 (`budget`).
"""

from pathlib import Path


def paper_defaults():
    """Text of the `--fixture paper` config, the values that no config
    default gives; parsed and checked by config.load alone, which adds
    the defaults."""
    with open(Path(__file__).parent / "fixtures" / "paper_defaults.json") as fh:
        return fh.read()
