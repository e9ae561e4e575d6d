import pickle

import numpy as np
import pytest

from cavqed import budget, cavity, cqed, dynamics, spectra
from cavqed.cavity import (
    LossBudget,
    internal_loss_from_q,
    kappa_from_q,
    mode_volume_gaussian,
    q_eff,
)
from cavqed.cqed import CouplingParams
from cavqed.dynamics import LevelScheme
from cavqed.spectra import EmitterModel
from cavqed.units import (
    bose_occupation,
    energy_from_wavelength,
    lifetime_from_rate,
    rate_from_lifetime,
)

CONVERTERS = [energy_from_wavelength, rate_from_lifetime, lifetime_from_rate]


@pytest.mark.parametrize("convert", CONVERTERS)
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_converters_reject_non_positive_and_nan(convert, value):
    with pytest.raises(ValueError, match="positive"):
        convert(value)


NAN = float("nan")


def labelled(rows):
    """parametrize's values and ids for (label, function, args) rows: a
    case's id is "<function name>-args<label>", with the label written in
    its row, so deleting or inserting a row renames no other case."""
    return {"argvalues": [row[1:] for row in rows],
            "ids": [f"{f.__name__}-args{label}" for label, f, _ in rows]}


CONSTRUCTORS = [
    (0, CouplingParams, (NAN, 2.5, 100.0)),
    (1, CouplingParams, (10.0, NAN, 100.0)),
    (2, CouplingParams, (10.0, 2.5, NAN)),
    (3, EmitterModel, (1e6, NAN, 0.65)),
    (4, EmitterModel, (1e6, 200.0, 0.65, 1.0, 1000.0, NAN)),
    (6, EmitterModel, (1e6, 200.0, 0.65, NAN, 1000.0)),
    (7, EmitterModel, (1e6, 200.0, 0.65, 1.0, NAN)),
    (8, LevelScheme, (NAN, 2.5, 0.0, 0.0, 0.0)),
    (9, LevelScheme, (0.4, 2.5, NAN, 0.0, 0.0)),
    (10, mode_volume_gaussian, (NAN, 1.0, 10.0, 6)),
    (11, mode_volume_gaussian, (1275.0, NAN, 10.0, 6)),
    (12, mode_volume_gaussian, (1275.0, 1.0, NAN, 6)),
    (13, LossBudget, (NAN,)),
    (14, kappa_from_q, (972000.0, NAN)),
    (15, kappa_from_q, (NAN, 1.12e4)),
    (16, q_eff, (NAN, 4860.0)),
    (17, internal_loss_from_q, (NAN, 56900.0, 6)),
    (18, EmitterModel, (NAN, 200.0, 0.65)),
]


@pytest.mark.parametrize("build, args", **labelled(CONSTRUCTORS))
def test_constructors_reject_nan(build, args):
    with pytest.raises(ValueError):
        build(*args)


COUPLING = CouplingParams(10.0, 2.5, 100.0)


SCALAR_CHECKS = [
    (0, cavity.purcell_factor, (NAN, 2.49, 1e4)),
    (1, cavity.purcell_factor, (1.0, NAN, 1e4)),
    (2, cavity.brightening_ratios, (0.65, NAN, 0.01)),
    (3, cavity.solve_fp_and_qy, (NAN, 2.0, 0.65)),
    (4, cavity.solve_fp_and_qy, (10.0, NAN, 0.65)),
    (5, cqed.steady_state, (NAN, COUPLING, 0.01)),
    (6, cqed.steady_state, (1.0, COUPLING, NAN)),
    (7, cqed.steady_state, (1.0, COUPLING, 0.01, NAN)),
    (9, cqed.invert_envelope, (None, NAN, 1.0)),
    (10, cqed.invert_envelope, (None, 1.0, NAN)),
    (11, cqed.g_from_lifetime, (NAN, 1.0, 0.65)),
    (12, cqed.g_from_lifetime, (200.0, NAN, 0.65)),
    (13, dynamics.simulate_decay, (NAN, 1.0, (0.5, 0.5), 10.0, 0.0, None)),
    (14, dynamics.simulate_decay, (2.5, NAN, (0.5, 0.5), 10.0, 0.0, None)),
    (15, dynamics.simulate_decay, (2.5, 1.0, (0.5, 0.5), NAN, 0.0, None)),
    (16, dynamics.saturation_curve, ([1.0, 2.0], NAN, 1.0, "cw")),
    (17, dynamics.saturation_curve, ([1.0, 2.0], 1.0, NAN, "cw")),
    (18, dynamics.saturation_curve, ([NAN, 2.0], 1.0, 1.0, "cw")),
    (19, dynamics.qy_from_saturation, (NAN, 0.1, 8e7)),
    (20, dynamics.qy_from_saturation, (1e5, 0.1, NAN)),
    (21, dynamics.pulsed_g2_comb, (LevelScheme(0.4, 2.5, 0.0, 0.0, 0.0),
                                   np.linspace(-1e4, 1e4, 201), NAN, 0.0)),
    (22, budget.detected_port_ratio, (None, None, NAN, 0.5)),
    (23, budget.fiber_flux_from_ccd, (NAN, 44.0)),
    (24, budget.fiber_flux_from_ccd, (1e5, NAN)),
    (25, budget.calibrate_unknown_stage, (None, None, 0.5, 0.5, NAN, "stage")),
    (26, spectra.energy_grid, (0.0, 10.0, NAN)),
    (27, spectra.energy_grid, (0.0, NAN, 1.0)),
    (28, spectra.debye_waller, (None, NAN)),
    (29, spectra.convolve_lorentzian, (None, NAN)),
    (30, spectra.s_tilde_max, (0.65, NAN, 100.0)),
    (31, spectra.s_tilde_max, (0.65, 200.0, NAN)),
    (32, bose_occupation, (NAN, 4.2)),
    (33, bose_occupation, (100.0, NAN)),
    (34, budget.calibrate_unknown_stage, (None, None, NAN, 0.5, 2.0, "stage")),
    (35, budget.calibrate_unknown_stage, (None, None, 0.5, -0.5, 2.0, "stage")),
    (36, spectra.energy_grid, (NAN, 10.0, 1.0)),
    (37, spectra.energy_grid, (float("inf"), 10.0, 1.0)),
]


@pytest.mark.parametrize("check, args", **labelled(SCALAR_CHECKS))
def test_scalar_checks_reject_nan(check, args):
    # the check's own message, not a numpy error further on
    with pytest.raises(ValueError, match=r"positive|>=? 0|< 1"):
        check(*args)


_GRID = np.linspace(0.0, 10.0, 11)
# (record, valid fields, fields one of its checks refuses, that check's message)
PICKLED = {
    "LossBudget": (LossBudget, (100.0, 100.0, 10.0, 0.0, 0.0), (-1.0, 100.0, 10.0, 0.0, 0.0),
                   "^loss channel t_flat must be >= 0$"),
    "Spectrum": (spectra.Spectrum, (_GRID, np.ones(11)), (_GRID, -np.ones(11)),
                 "^spectral values must be finite and nonnegative$"),
}


@pytest.mark.parametrize("protocol", range(6))
@pytest.mark.parametrize("record, good, bad, message", PICKLED.values(), ids=PICKLED.keys())
def test_pickle_builds_through_the_checks_under_every_protocol(record, good, bad, message,
                                                               protocol):
    # a stream that holds fields a check refuses, as an edited one would,
    # raises the constructor's error; a valid record comes back equal
    tampered = pickle.dumps(tuple.__new__(record, bad), protocol)
    with pytest.raises(ValueError, match=message):
        pickle.loads(tampered)
    copy = pickle.loads(pickle.dumps(record(*good), protocol))
    assert type(copy) is record and len(copy) == len(good)
    assert all(np.array_equal(field, value) for field, value in zip(copy, good))
