import numpy as np
import pytest

from cavqed import budget, cqed, dynamics, spectra
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
    bose_occupation,
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


COUPLING = CouplingParams(10.0, 2.5, 100.0)


@pytest.mark.parametrize("check, args", [
    (cqed.purcell_factor, (NAN, 1.0, 2.49, 1e4)),
    (cqed.purcell_factor, (1275.0, 1.0, NAN, 1e4)),
    (cqed.brightening_ratios, (0.65, NAN, 0.01)),
    (cqed.solve_fp_and_qy, (NAN, 2.0, 0.65)),
    (cqed.solve_fp_and_qy, (10.0, NAN, 0.65)),
    (cqed.steady_state, (NAN, COUPLING, 0.01)),
    (cqed.steady_state, (1.0, COUPLING, NAN)),
    (cqed.steady_state, (1.0, COUPLING, 0.01, NAN)),
    (cqed.emitted_spectrum, (0.0, COUPLING, None, NAN, None)),
    (cqed.invert_envelope, (None, NAN, 1.0)),
    (cqed.invert_envelope, (None, 1.0, NAN)),
    (cqed.g_from_lifetime, (NAN, 1.0, 0.65)),
    (cqed.g_from_lifetime, (200.0, NAN, 0.65)),
    (dynamics.simulate_decay, (NAN, 1.0, (0.5, 0.5), 10.0, 0.0, None)),
    (dynamics.simulate_decay, (2.5, NAN, (0.5, 0.5), 10.0, 0.0, None)),
    (dynamics.simulate_decay, (2.5, 1.0, (0.5, 0.5), NAN, 0.0, None)),
    (dynamics.saturation_curve, ([1.0, 2.0], NAN, 1.0, "cw")),
    (dynamics.saturation_curve, ([1.0, 2.0], 1.0, NAN, "cw")),
    (dynamics.saturation_curve, ([NAN, 2.0], 1.0, 1.0, "cw")),
    (dynamics.qy_from_saturation, (NAN, 0.1, 8e7)),
    (dynamics.qy_from_saturation, (1e5, 0.1, NAN)),
    (dynamics.g2_correlation, (LevelScheme(0.4, 2.5), "pulsed", np.linspace(-1e4, 1e4, 201),
                               0.0, NAN)),
    (budget.detected_port_ratio, (None, None, NAN, 0.5)),
    (budget.fiber_flux_from_ccd, (NAN, 44.0)),
    (budget.fiber_flux_from_ccd, (1e5, NAN)),
    (budget.calibrate_unknown_stage, (None, None, 0.5, 0.5, NAN, "stage")),
    (spectra.energy_grid, (0.0, 10.0, NAN)),
    (spectra.energy_grid, (0.0, NAN, 1.0)),
    (spectra.debye_waller, (None, NAN)),
    (spectra.convolve_lorentzian, (None, NAN)),
    (spectra.s_tilde_max, (0.65, NAN, 100.0)),
    (spectra.s_tilde_max, (0.65, 200.0, NAN)),
    (bose_occupation, (NAN, 4.2)),
    (bose_occupation, (100.0, NAN)),
    (budget.calibrate_unknown_stage, (None, None, NAN, 0.5, 2.0, "stage")),
    (budget.calibrate_unknown_stage, (None, None, 0.5, -0.5, 2.0, "stage")),
    (spectra.energy_grid, (NAN, 10.0, 1.0)),
    (spectra.energy_grid, (float("inf"), 10.0, 1.0)),
], ids=lambda item: getattr(item, "__name__", None))
def test_scalar_checks_reject_nan(check, args):
    # the check's own message, not a numpy error further on
    with pytest.raises(ValueError, match=r"positive|>=? 0|< 1"):
        check(*args)
