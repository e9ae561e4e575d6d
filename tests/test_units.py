import pytest

from cavqed.cavity import (
    CavityGeometry,
    LossBudget,
    internal_loss_from_q,
    kappa_from_q,
    q_eff,
)
from cavqed.cqed import CouplingParams
from cavqed.dynamics import LevelScheme
from cavqed.spectra import EmitterModel, SidebandShape
from cavqed.units import (
    energy_from_wavelength,
    lifetime_from_rate,
    rate_from_lifetime,
    wavelength_from_energy,
)

CONVERTERS = [energy_from_wavelength, wavelength_from_energy,
              rate_from_lifetime, lifetime_from_rate]


@pytest.mark.parametrize("convert", CONVERTERS)
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_converters_reject_non_positive_and_nan(convert, value):
    with pytest.raises(ValueError, match="positive"):
        convert(value)



NAN = float("nan")


@pytest.mark.parametrize("build, args", [
    (CouplingParams, (NAN, 2.5, 100.0)),
    (CouplingParams, (10.0, NAN, 100.0)),
    (CouplingParams, (10.0, 2.5, NAN)),
    (EmitterModel, (1e6, NAN, 0.65)),
    (EmitterModel, (1e6, 200.0, 0.65, SidebandShape(), NAN)),
    (EmitterModel, (1e6, 200.0, 0.65, SidebandShape(), 4.2, NAN)),
    (SidebandShape, (NAN, 1000.0)),
    (SidebandShape, (1.0, NAN)),
    (LevelScheme, (NAN, 2.5)),
    (LevelScheme, (0.4, 2.5, NAN)),
    (CavityGeometry, (NAN,)),
    (CavityGeometry, (1275.0, NAN)),
    (CavityGeometry, (1275.0, 1.0, NAN)),
    (LossBudget, (NAN,)),
    (kappa_from_q, (972000.0, NAN)),
    (kappa_from_q, (NAN, 1.12e4)),
    (q_eff, (NAN, 4860.0)),
    (internal_loss_from_q, (NAN, 56900.0, 6)),
], ids=lambda item: getattr(item, "__name__", None))
def test_constructors_reject_nan(build, args):
    with pytest.raises(ValueError):
        build(*args)
