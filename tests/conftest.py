import numpy as np
import pytest

from cavqed import config, spectra
from cavqed.units import HBAR_UEV_PS, energy_from_wavelength

# shared emitter/cavity scales matching the fixture parameter set
ZPL_ENERGY = energy_from_wavelength(1275.0)
KAPPA = ZPL_ENERGY / 1.12e4          # 86.824 ueV
GAMMA = HBAR_UEV_PS / 256.0          # 2.5711 ueV


@pytest.fixture(scope="session")
def paper_model():
    return config.emitter_from_config(config.load("paper"))


@pytest.fixture(scope="session")
def paper_grid():
    return spectra.energy_grid(ZPL_ENERGY, 6000.0, 4.0)


@pytest.fixture(scope="session")
def paper_fs_spectrum(paper_model, paper_grid):
    return spectra.build_fs_spectrum(paper_model, paper_grid)


def lorentzian_area2pi(grid, center, fwhm):
    """Area-2pi Lorentzian renormalized on the grid (tails clipped)."""
    values = spectra.lorentzian(grid, center, fwhm)
    values = values * (2.0 * np.pi / np.trapezoid(values, grid))
    return spectra.Spectrum(grid, values, spectra.AREA_2PI)


def measure_fwhm(x, y):
    """Full width at half maximum by linear interpolation of crossings."""
    half = y.max() / 2.0
    above = np.where(y >= half)[0]
    i0, i1 = above[0], above[-1]

    def cross(ia, ib):
        return x[ia] + (half - y[ia]) * (x[ib] - x[ia]) / (y[ib] - y[ia])

    left = cross(i0 - 1, i0) if i0 > 0 else x[0]
    right = cross(i1 + 1, i1) if i1 + 1 < x.size else x[-1]
    return right - left
