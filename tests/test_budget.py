import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavqed import config
from cavqed.budget import (
    calibrate_unknown_stage,
    chain_efficiency,
    detected_port_ratio,
    fiber_flux_from_ccd,
    photons_per_count,
)


# table S3 of the paper: extraction, path-and-detector product and
# their overall product, per collection path
SUMMARY = {
    "free_space": {"extraction_first_lens": 0.19, "path_and_detector": 0.035, "overall": 0.0066},
    "cavity_planar": {"extraction_first_lens": 0.056, "path_and_detector": 0.024,
                      "overall": 0.00135},
    "cavity_fiber": {"extraction_first_lens": 0.06, "path_and_detector": 0.15, "overall": 0.009},
}


@pytest.fixture(scope="module")
def paper():
    return config.load("paper")


@pytest.fixture(scope="module")
def tables(paper):
    return paper["budget"]["extraction"], paper["budget"]["chains"], SUMMARY


def test_quoted_overall_is_the_summary_table(paper):
    assert paper["budget"]["overall_quoted"] == {path: row["overall"]
                                                 for path, row in SUMMARY.items()}


class TestChainEfficiency:
    def test_single_unity_stage(self):
        assert chain_efficiency({"only": 1.0}) == 1.0

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError) as info:
            chain_efficiency({})
        assert str(info.value) == "a chain needs at least one stage"

    def test_free_space_overall(self, tables):
        # 0.19 * 0.035 = 0.665 %, the quoted 0.66 % up to rounding
        extractions, chains, summary = tables
        overall = extractions["free_space"] * chain_efficiency(chains["free_space"])
        assert overall == pytest.approx(0.19 * 0.035, rel=2e-2)
        assert overall == pytest.approx(summary["free_space"]["overall"], abs=1e-4)

    def test_fiber_overall(self, tables):
        extractions, chains, summary = tables
        # summary-table route is exact: 0.060 * 0.15 = 0.90 %
        s3 = summary["cavity_fiber"]
        assert s3["extraction_first_lens"] * s3["path_and_detector"] \
            == pytest.approx(s3["overall"], abs=1e-5)
        # the finer stage product 0.19 * 0.78 = 14.8 % rounds to the 15 %
        # of the summary, so the overall agrees to the last quoted digit
        overall = extractions["cavity_fiber"] * chain_efficiency(chains["cavity_fiber"])
        assert overall == pytest.approx(s3["overall"], abs=2e-4)

    def test_order_invariant_and_multiplicative(self):
        stages = [("a", 0.5), ("b", 0.25), ("c", 0.9)]
        forward = chain_efficiency(dict(stages))
        reverse = chain_efficiency(dict(reversed(stages)))
        assert forward == pytest.approx(reverse, rel=1e-15)
        left = chain_efficiency(dict(stages[:2]))
        right = chain_efficiency(dict(stages[2:]))
        assert forward == pytest.approx(left * right, rel=1e-15)

    def test_stage_bounds(self):
        for efficiency in (0.0, 1.5):
            with pytest.raises(ValueError) as info:
                chain_efficiency({"good": 0.5, "bad": efficiency})
            assert str(info.value) == f"stage 'bad': efficiency must be in (0, 1], got {efficiency}"


class TestPhotonsPerCount:
    def test_planar_path(self, tables):
        # oracle: 0.98 * 0.34 * 0.74 * 0.098 = 0.02416 -> 41.4 photons/count
        _, chains, _ = tables
        product = 0.98 * 0.34 * 0.74 * 0.098
        got = photons_per_count(chains["cavity_planar"])
        assert got == pytest.approx(1.0 / product, rel=1e-12)
        assert got == pytest.approx(41.4, abs=0.05)
        assert got == pytest.approx(41.0, rel=0.02)

    def test_unity_chain(self):
        assert photons_per_count({"a": 1.0, "b": 1.0}) == 1.0

    def test_halving_a_stage_doubles_it(self, tables):
        _, chains, _ = tables
        planar = chains["cavity_planar"]
        base = photons_per_count(planar)
        halved = dict(planar, beamsplitter=planar["beamsplitter"] / 2.0)
        assert photons_per_count(halved) == pytest.approx(2.0 * base, rel=1e-12)

    def test_identity_with_chain_product(self, tables):
        _, chains, _ = tables
        for chain in chains.values():
            assert photons_per_count(chain) * chain_efficiency(chain) \
                == pytest.approx(1.0, rel=1e-15)


class TestDetectedPortRatio:
    def test_summary_table_values(self, tables):
        # overall 0.90 % / 0.135 % = 6.67, measured 6.7 +- 0.3
        _, _, summary = tables
        ratio = summary["cavity_fiber"]["overall"] / summary["cavity_planar"]["overall"]
        assert ratio == pytest.approx(6.67, abs=0.01)
        assert abs(ratio - 6.7) <= 0.3

    def test_stagewise_ratio(self, tables):
        extractions, chains, _ = tables
        ratio = detected_port_ratio(chains["cavity_fiber"], chains["cavity_planar"],
                                    extractions["cavity_fiber"], extractions["cavity_planar"])
        assert abs(ratio - 6.7) <= 0.3

    def test_identical_ports(self, tables):
        _, chains, _ = tables
        chain = chains["cavity_fiber"]
        assert detected_port_ratio(chain, chain, 0.06, 0.06) == pytest.approx(1.0, rel=1e-15)

    def test_swap_inverts(self, tables):
        extractions, chains, _ = tables
        forward = detected_port_ratio(chains["cavity_fiber"], chains["cavity_planar"],
                                      extractions["cavity_fiber"], extractions["cavity_planar"])
        backward = detected_port_ratio(chains["cavity_planar"], chains["cavity_fiber"],
                                       extractions["cavity_planar"], extractions["cavity_fiber"])
        assert forward * backward == pytest.approx(1.0, rel=1e-12)


class TestFiberFlux:
    def test_paper_numbers(self):
        # 4.7e5 counts/s * 44 photons/count = 2.07e7, the quoted 2.1e7
        flux = fiber_flux_from_ccd(4.7e5, 44.0)
        assert flux == pytest.approx(2.068e7, rel=1e-3)
        assert abs(flux - 2.1e7) / 2.1e7 < 0.02

    def test_unit_case(self):
        assert fiber_flux_from_ccd(1.0, 1.0) == 1.0

    def test_saturation_scaled_route(self):
        # extrapolate the 2.7e4 counts/s CCD rate at 100 uW to the
        # saturation plateau with the cw model (P_sat ~ 1.6 mW), then
        # convert with the 44 photons-into-fiber cross-calibration:
        # lands on the quoted 21 +- 3 x 1e6 photons/s
        low_power, low_rate = 100.0, 2.7e4
        p_sat = 1640.0
        i_sat = low_rate * (low_power + p_sat) / low_power
        assert i_sat == pytest.approx(4.7e5, rel=0.01)
        from cavqed.dynamics import saturation_curve
        back = float(saturation_curve(np.array([low_power]), i_sat, p_sat, "cw")[0])
        assert back == pytest.approx(low_rate, rel=1e-12)
        photons = fiber_flux_from_ccd(i_sat, 44.0)
        assert photons == pytest.approx(2.1e7, abs=0.3e7)


class TestCollectionRatio:
    """The free-space over cavity-planar collection ratio is the port ratio
    with the extraction efficiencies as the exits."""

    def test_summary_values(self, tables):
        # 0.66 % / 0.135 % = 4.89, quoted 4.9 +- 0.2
        extractions, chains, summary = tables
        ratio = detected_port_ratio(
            chains["free_space"], chains["cavity_planar"],
            extractions["free_space"], extractions["cavity_planar"])
        assert ratio == pytest.approx(4.9, abs=0.1)
        quoted = summary["free_space"]["overall"] / summary["cavity_planar"]["overall"]
        assert quoted == pytest.approx(4.89, abs=0.01)

    def test_equal_chains_give_one(self, tables):
        _, chains, _ = tables
        chain = chains["free_space"]
        assert detected_port_ratio(chain, chain, 0.19, 0.19) == 1.0

    def test_feeds_purcell_closure(self, tables):
        # raw count ratio x collection ratio ~ 19 feeds the F_P solver
        from cavqed.cavity import solve_fp_and_qy
        extractions, chains, _ = tables
        ratio = detected_port_ratio(
            chains["free_space"], chains["cavity_planar"],
            extractions["free_space"], extractions["cavity_planar"])
        raw_count_ratio = 19.0 / ratio
        f_p, _ = solve_fp_and_qy(raw_count_ratio * ratio, 1.19, 0.65)
        assert f_p == pytest.approx(29.2, abs=0.1)


class TestCalibrateUnknownStage:
    def test_synthetic_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            chain_a = {f"a{i}": rng.uniform(0.05, 1.0) for i in range(3)}
            b_known = {f"b{i}": rng.uniform(0.05, 1.0) for i in range(2)}
            unknown_true = rng.uniform(0.05, 1.0)
            chain_b_full = {**b_known, "mystery": unknown_true}
            exit_a, exit_b = rng.uniform(0.01, 0.2, 2)
            measured = detected_port_ratio(chain_a, chain_b_full, exit_a, exit_b)
            solved, physical = calibrate_unknown_stage(
                chain_a, chain_b_full, exit_a, exit_b, measured, "mystery")
            assert physical
            assert solved == pytest.approx(unknown_true, rel=1e-10)

    def test_planted_known_values(self):
        for planted in (0.33, 1.0):
            chain_a = {"s": 0.5}
            chain_b_full = {"u": planted}
            measured = detected_port_ratio(chain_a, chain_b_full, 0.1, 0.1)
            solved, physical = calibrate_unknown_stage(
                chain_a, chain_b_full, 0.1, 0.1, measured, "u")
            assert physical
            assert solved == pytest.approx(planted, rel=1e-12)

    def test_paper_inputs_do_not_close(self, tables, paper):
        # the measured fiber/planar exit ratio 2.3 yields an in-cryostat
        # transmission near 0.70, not the quoted 0.33; both are reported
        extractions, chains, _ = tables
        [mode] = [row for row in paper["cavity"]["modes"] if row["p"] == 6]
        solved, physical = calibrate_unknown_stage(
            chains["cavity_fiber"], chains["cavity_planar"],
            mode["p_fiber_pct"] / 100.0, mode["p_subs_pct"] / 100.0,
            2.3, "cryostat_optics")
        assert physical
        assert 0.6 <= solved <= 0.8
        assert abs(solved - 0.33) > 0.2

    def test_unknown_in_both_chains_rejected(self):
        with pytest.raises(ValueError, match="both"):
            calibrate_unknown_stage({"u": 0.5}, {"u": 0.5}, 0.1, 0.1, 1.0, "u")

    def test_unknown_missing_rejected(self):
        with pytest.raises(ValueError, match="neither"):
            calibrate_unknown_stage({"x": 0.5}, {"y": 0.5}, 0.1, 0.1, 1.0, "u")

    def test_listed_efficiency_of_solved_stage_is_checked(self):
        # left out of the product, but still a transmission in (0, 1]
        with pytest.raises(ValueError) as info:
            calibrate_unknown_stage({"s": 0.5}, {"u": 1.5}, 0.1, 0.1, 1.0, "u")
        assert str(info.value) == "stage 'u': efficiency must be in (0, 1], got 1.5"

    def test_out_of_range_solution_flagged(self):
        solved, physical = calibrate_unknown_stage({"s": 1.0}, {"u": 0.5}, 0.1, 0.1, 0.2, "u")
        assert solved == pytest.approx(5.0, rel=1e-12)
        assert not physical

    @given(unknown=st.floats(0.05, 1.0), exit_a=st.floats(0.01, 0.5),
           exit_b=st.floats(0.01, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, unknown, exit_a, exit_b):
        chain_a = {"fixed": 0.4}
        chain_b_full = {"u": unknown, "k": 0.6}
        measured = detected_port_ratio(chain_a, chain_b_full, exit_a, exit_b)
        solved, _ = calibrate_unknown_stage(chain_a, chain_b_full, exit_a, exit_b,
                                            measured, "u")
        assert solved == pytest.approx(unknown, rel=1e-10)

    @given(listed=st.floats(1e-6, 1.0), in_a=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_listed_efficiency_of_solved_stage_is_ignored(self, tables, listed, in_a):
        # the solution depends on the other stages only, bit for bit
        extractions, chains, _ = tables
        planar = chains["cavity_planar"]
        relisted = dict(planar, cryostat_optics=listed)
        exits = extractions["cavity_fiber"], extractions["cavity_planar"]

        def solve(chain):
            if in_a:
                return calibrate_unknown_stage(chain, chains["cavity_fiber"], *exits[::-1],
                                               0.4, "cryostat_optics")
            return calibrate_unknown_stage(chains["cavity_fiber"], chain, *exits,
                                           2.3, "cryostat_optics")

        assert solve(relisted) == solve(planar)
