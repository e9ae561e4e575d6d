"""The paper's parameter set, shipped with the package as one JSON config:
the emitter and measured values, the simulated cavity modes of table S1
(`cavity.modes`), and the stage and overall efficiencies of tables S2 and
S3 (`budget`).
"""

import functools
from pathlib import Path


def paper_defaults():
    """Text of the `--fixture paper` config, the values that no config
    default gives; parsed and checked by config.load alone, which adds
    the defaults.  The file is read once per process; this function
    stays a plain one, so that a wrapper that traces or patches it still
    sees every call."""
    return _paper_text()


@functools.cache
def _paper_text():
    """The fixture file's text, decoded as UTF-8 as RFC 8259 requires of
    JSON, whatever the locale."""
    path = Path(__file__).parent / "fixtures" / "paper_defaults.json"
    return path.read_bytes().decode("utf-8")
