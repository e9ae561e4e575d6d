"""Cavity-QED toolkit for Purcell-enhanced single-photon emitters in
tunable Fabry-Perot microcavities: emitter spectra with acoustic phonon
sidebands, cavity loss budgets, brightening and lifetime analysis,
detuning-modulated brightness profiles with Rabi-coupling extraction,
intensity correlations, and photon-budget accounting.

Names live in the submodules: `from cavqed import spectra, cqed`.  A
submodule is also imported the first time it is read as an attribute
(`import cavqed; cavqed.spectra`), so importing the package alone loads
no submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({"budget", "cavity", "cli", "config", "cqed", "dynamics",
                         "fixtures", "numtext", "optimize", "spectra", "svg", "units"})


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
