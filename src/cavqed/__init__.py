"""Cavity-QED toolkit for Purcell-enhanced single-photon emitters in
tunable Fabry-Perot microcavities: emitter spectra with acoustic phonon
sidebands, cavity loss budgets, brightening and lifetime analysis,
detuning-modulated brightness profiles with Rabi-coupling extraction,
intensity correlations, and photon-budget accounting.

Names live in the submodules: `from cavqed import spectra, cqed`.
"""

__version__ = "0.1.0"
