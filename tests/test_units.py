import pytest

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

