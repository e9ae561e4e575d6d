import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavqed import config
from cavqed.cavity import (
    LossBudget,
    exit_probabilities,
    internal_loss_from_q,
    kappa_from_q,
    mode_volume_gaussian,
    q_eff,
    q_from_losses,
)
from cavqed.units import HBAR_UEV_PS, energy_from_wavelength

TABLE_V_EFF = {6: 2.49, 7: 2.86, 8: 3.53, 9: 4.23}


def paper_volume(p):
    return mode_volume_gaussian(wavelength_nm=1275.0, refractive_index=1.0,
                                radius_of_curvature_um=10.0, mode_order=p)


class TestModeVolume:
    def test_hand_evaluated_closed_form(self):
        # oracle: L = 3.825 um, w0^2 = (1.275/pi) sqrt(L(R-L)), V = (pi/4) w0^2 L
        length = 6 * 1.275 / 2.0
        waist_sq = (1.275 / np.pi) * np.sqrt(length * (10.0 - length))
        expected = (np.pi / 4.0) * waist_sq * length / 1.275 ** 3
        assert expected == pytest.approx(2.86, abs=0.01)
        assert paper_volume(6) == pytest.approx(expected, rel=1e-12)

    def test_within_20_percent_of_simulated_p6(self):
        v = paper_volume(6)
        assert abs(v - TABLE_V_EFF[6]) / TABLE_V_EFF[6] < 0.20

    def test_monotone_in_mode_order(self):
        volumes = [paper_volume(p) for p in (6, 7, 8, 9)]
        assert all(a < b for a, b in zip(volumes, volumes[1:]))
        fixture = [TABLE_V_EFF[p] for p in (6, 7, 8, 9)]
        assert all(a < b for a, b in zip(fixture, fixture[1:]))

    def test_unstable_cavity_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            mode_volume_gaussian(1275.0, 1.0, 3.0, 6)

    @given(wavelength=st.floats(900.0, 1600.0), radius=st.floats(8.0, 40.0))
    @settings(max_examples=30, deadline=None)
    def test_strictly_increasing_over_stability_range(self, wavelength, radius):
        volumes = []
        for p in range(6, 10):
            length = p * wavelength * 1e-3 / 2.0
            if length >= 0.75 * radius:
                break
            volumes.append(mode_volume_gaussian(wavelength, 1.0, radius, p))
        assert all(a < b for a, b in zip(volumes, volumes[1:]))


class TestQFromLosses:
    def test_finesse_1000(self):
        budget = LossBudget(t_flat=2.0 * np.pi * 1e3 / 2.0, t_fiber=np.pi * 1e3,
                            internal_per_pass=0.0)
        finesse, _ = q_from_losses(budget, 6)
        assert finesse == pytest.approx(1000.0, rel=1e-12)

    def test_paper_total_loss(self):
        # 3366 ppm round trip at p=6 gives Q = 2 pi 6 / 3366e-6 = 1.12e4
        budget = LossBudget(t_flat=500.0, t_fiber=300.0, internal_per_pass=1283.0)
        assert budget.round_trip_ppm == pytest.approx(3366.0)
        _, q = q_from_losses(budget, 6)
        assert q == pytest.approx(2.0 * np.pi * 6 / 3366e-6, rel=1e-12)
        assert q == pytest.approx(1.12e4, rel=1e-4)

    def test_linear_in_mode_order(self):
        budget = LossBudget(t_flat=500.0, t_fiber=300.0)
        _, q6 = q_from_losses(budget, 6)
        _, q12 = q_from_losses(budget, 12)
        assert q12 == pytest.approx(2.0 * q6, rel=1e-12)

    def test_round_trip_identity_with_q(self):
        for q_in in (1e3, 1.12e4, 5.7e4):
            loss_ppm = 2.0 * np.pi * 6 / q_in * 1e6
            budget = LossBudget(t_flat=loss_ppm, t_fiber=0.0)
            _, q_out = q_from_losses(budget, 6)
            assert q_out == pytest.approx(q_in, rel=1e-12)

    def test_zero_loss_rejected(self):
        with pytest.raises(ValueError):
            LossBudget(t_flat=0.0, t_fiber=0.0)


class TestInternalLoss:
    def test_paper_deduction(self):
        # oracle: 2 pi 6 (1/1.12e4 - 1/5.69e4) / 2 = 1352 ppm per pass
        expected = 0.5 * 2.0 * np.pi * 6 * (1 / 1.12e4 - 1 / 5.69e4) * 1e6
        got = internal_loss_from_q(1.12e4, 5.69e4, 6)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1352.0, abs=1.0)
        assert 1250.0 <= got <= 1450.0

    def test_half_q_gives_pi_p_over_q(self):
        q_th = 4.2e4
        got = internal_loss_from_q(q_th / 2.0, q_th, 6)
        assert got == pytest.approx(np.pi * 6 / q_th * 1e6, rel=1e-12)

    def test_doubles_with_mode_order(self):
        one = internal_loss_from_q(1e4, 5e4, 6)
        two = internal_loss_from_q(1e4, 5e4, 12)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_requires_measured_below_theory(self):
        with pytest.raises(ValueError, match="no internal loss"):
            internal_loss_from_q(5e4, 4e4, 6)


class TestExitProbabilities:
    def test_two_equal_channels(self):
        budget = LossBudget(t_flat=500.0, t_fiber=500.0)
        probs = exit_probabilities(budget)
        assert probs["t_flat"] == pytest.approx(0.5)
        assert probs["t_fiber"] == pytest.approx(0.5)

    def test_partition_arithmetic(self):
        # channels {500, 300, 2704, 0} ppm -> 0.1427, 0.0856
        budget = LossBudget(t_flat=500.0, t_fiber=300.0, internal_per_pass=1352.0)
        probs = exit_probabilities(budget)
        assert probs["t_flat"] == pytest.approx(500.0 / 3504.0, rel=1e-12)
        assert probs["t_flat"] == pytest.approx(0.1427, abs=1e-4)
        assert probs["t_fiber"] == pytest.approx(0.0856, abs=1e-4)

    def test_all_channels_sum_to_one(self):
        budget = LossBudget(t_flat=500.0, t_fiber=300.0, internal_per_pass=650.0,
                            spillout=120.0, cladding=80.0)
        assert sum(exit_probabilities(budget).values()) == pytest.approx(1.0, rel=1e-15)


class TestQEff:
    def test_equal_inputs_halve(self):
        assert q_eff(2e4, 2e4) == pytest.approx(1e4, rel=1e-12)

    def test_infinite_emitter_limit(self):
        assert q_eff(1.12e4, 1e18) == pytest.approx(1.12e4, rel=1e-9)

    def test_paper_value(self):
        q_em = energy_from_wavelength(1275.0) / 200.0
        assert q_em == pytest.approx(4862.0, abs=1.0)
        assert q_eff(1.12e4, q_em) == pytest.approx(3390.0, abs=1.0)

    @given(a=st.floats(1.0, 1e9), b=st.floats(1.0, 1e9))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_below_min(self, a, b):
        assert q_eff(a, b) == pytest.approx(q_eff(b, a), rel=1e-12)
        assert q_eff(a, b) <= min(a, b)


class TestKappaFromQ:
    def test_unit_case(self):
        assert kappa_from_q(1e4, 1e4) == pytest.approx(1.0)

    def test_paper_kappa(self):
        kappa = kappa_from_q(energy_from_wavelength(1275.0), 1.12e4)
        assert kappa == pytest.approx(86.8, abs=0.1)

    def test_kappa_over_gamma_ratio(self):
        kappa = kappa_from_q(energy_from_wavelength(1275.0), 1.12e4)
        gamma = HBAR_UEV_PS / 256.0
        assert gamma == pytest.approx(2.571, abs=1e-3)
        # close to the quoted ~30 within 15%
        assert kappa / gamma == pytest.approx(33.8, abs=0.1)
        assert abs(kappa / gamma - 30.0) / 30.0 < 0.15


class TestFixtureTable:
    @pytest.fixture(scope="class")
    def table(self):
        return {row["p"]: row for row in config.load("paper")["cavity"]["modes"]}

    def test_values_match_simulation_table(self, table):
        assert table[6]["p_subs_pct"] == 7.85
        assert table[6]["p_fiber_pct"] == 6.03
        assert table[6]["q_th"] == 56900.0
        assert table[6]["q_exp"] == 11200.0
        assert [table[p]["v_eff_lambda3"] for p in (6, 7, 8, 9)] == [2.49, 2.86, 3.53, 4.23]

    def test_gaussian_volume_within_25_percent_everywhere(self, table):
        for p, row in table.items():
            v = paper_volume(p)
            assert abs(v - row["v_eff_lambda3"]) / row["v_eff_lambda3"] < 0.25
