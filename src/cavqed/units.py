"""Shared unit conventions and physical constants.

Everything in this package uses one convention: energies and rates in
micro-electronvolts (ueV), times in picoseconds (ps), wavelengths in
nanometers (nm).  A rate gamma and a lifetime tau are two views of the
same quantity, gamma = HBAR_UEV_PS / tau.  Only `bose_occupation`
needs numpy, and imports it in its body, so that the numpy-free `config`
can read the constants.  `_record` is the package's one way to write a
value type.
"""

from collections import namedtuple

# hbar in ueV * ps.  Single source of truth for every rate <-> lifetime
# conversion in the package.
HBAR_UEV_PS = 658.2119569

# h*c in ueV * nm (photon energy E = HC_UEV_NM / wavelength_nm).
HC_UEV_NM = 1.23984198e9

# Boltzmann constant in ueV / K.
KB_UEV_PER_K = 86.17333262


def _record(typename, field_names):
    """A namedtuple base for an immutable value type that its subclass
    checks in `__new__`.

    `_make` builds through that `__new__`, and so do namedtuple's own
    `_replace`, which calls `_make`, and copy and pickle, which under
    every protocol call the class with the fields (`__reduce__`): no path
    gives a record that fails a check.
    A record is a tuple: it unpacks and indexes, and compares equal to a
    plain tuple, or another record, that holds the same values.  Each
    subclass sets `__slots__ = ()`, so assigning an attribute raises
    AttributeError.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    # not copyreg's default for protocols 0 and 1, which builds the tuple
    # without the subclass's __new__
    base.__reduce__ = lambda self: (type(self), tuple(self))
    return base


def energy_from_wavelength(wavelength_nm):
    """Photon energy in ueV for a vacuum wavelength in nm."""
    if not wavelength_nm > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_nm}")
    return HC_UEV_NM / wavelength_nm


def rate_from_lifetime(tau_ps):
    """Decay rate in ueV equivalent to a lifetime in ps."""
    if not tau_ps > 0:
        raise ValueError(f"lifetime must be positive, got {tau_ps}")
    return HBAR_UEV_PS / tau_ps


def lifetime_from_rate(gamma_uev):
    """Lifetime in ps equivalent to a decay rate in ueV."""
    if not gamma_uev > 0:
        raise ValueError(f"rate must be positive, got {gamma_uev}")
    return HBAR_UEV_PS / gamma_uev


def bose_occupation(energy_uev, temperature_k):
    """Bose-Einstein occupation of a mode at `energy_uev` and temperature T.

    Vectorized over energy.  Returns 0 at T = 0 (and stays finite for
    energies >> kT); energies must be strictly positive.
    """
    import numpy as np

    energy = np.asarray(energy_uev, dtype=float)
    if not np.all(energy > 0):
        raise ValueError("bose_occupation requires strictly positive energies")
    if not temperature_k >= 0:
        raise ValueError(f"temperature must be >= 0, got {temperature_k}")
    if temperature_k == 0:
        return np.zeros_like(energy) if energy.ndim else 0.0
    x = energy / (KB_UEV_PER_K * temperature_k)
    # expm1 keeps precision for x << 1 and saturates cleanly for x >> 1
    out = 1.0 / np.expm1(np.minimum(x, 700.0))
    return out if energy.ndim else float(out)
