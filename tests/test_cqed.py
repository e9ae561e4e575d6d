import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavqed import spectra
from cavqed.cavity import brightening_ratios, purcell_factor, solve_fp_and_qy
from cavqed.cqed import (
    CouplingParams,
    brightness_profile,
    fit_g_from_envelope,
    g_from_lifetime,
    hill_envelope,
    invert_envelope,
    steady_state,
)
from cavqed.optimize import _brent_bounded
from cavqed.spectra import Spectrum, energy_grid, lorentzian

from conftest import GAMMA, KAPPA, ZPL_ENERGY


def zpl_filtered_spectrum(grid, dw=1.0, gamma_star=200.0, kappa=KAPPA):
    """Analytic cavity-filtered ZPL: Lorentzian of width gamma*+kappa
    peaking at 4 DW/(gamma*+kappa)."""
    width = gamma_star + kappa
    peak = 4.0 * dw / width
    x = 2.0 * (grid - ZPL_ENERGY) / width
    return Spectrum(grid, peak / (1.0 + x * x))


class TestPurcellFactor:
    def test_definition_inversion(self):
        q = 7.3e3
        v = 3.0 / (4.0 * np.pi ** 2) * q
        assert purcell_factor(1.0, v, q) == pytest.approx(1.0, rel=1e-12)

    def test_paper_mode_with_cavity_q(self):
        # oracle: (3/4pi^2) * 1.12e4 / 2.49
        expected = 3.0 / (4.0 * np.pi ** 2) * 1.12e4 / 2.49
        assert expected == pytest.approx(341.8, abs=0.3)
        assert purcell_factor(1.0, 2.49, 1.12e4) == pytest.approx(expected, rel=1e-12)

    def test_homogeneous_in_q_and_v(self):
        base = purcell_factor(1.0, 2.49, 1.12e4)
        assert purcell_factor(1.0, 4.98, 2.24e4) == pytest.approx(base, rel=1e-12)

    def test_doubles_when_volume_halves(self):
        base = purcell_factor(1.0, 2.49, 1.12e4)
        assert purcell_factor(1.0, 1.245, 1.12e4) == pytest.approx(2 * base, rel=1e-12)

    def test_refractive_index_conversion(self):
        # v_eff in lambda^3 units converts by n^3 into (lambda/n)^3 units
        assert purcell_factor(2.0, 2.49, 1.12e4) == pytest.approx(
            purcell_factor(1.0, 2.49 * 8.0, 1.12e4), rel=1e-12)


class TestBrighteningRatios:
    def test_saturation_ratio(self):
        result = brightening_ratios(0.65, 29.0, 0.01)
        assert result.flux_ratio_sat == pytest.approx(18.85, abs=0.01)

    def test_decay_ratio(self):
        result = brightening_ratios(0.65, 29.0, 0.01)
        assert result.decay_ratio == pytest.approx(1.1885, abs=1e-4)
        assert result.decay_ratio == pytest.approx(1.19, abs=0.01)

    def test_zero_yield_makes_linear_equal_saturation(self):
        result = brightening_ratios(0.65, 29.0, 0.0)
        assert result.flux_ratio_linear == result.flux_ratio_sat
        assert result.decay_ratio == 1.0

    def test_saturation_dominates_linear(self):
        result = brightening_ratios(0.65, 29.0, 0.01)
        assert result.flux_ratio_sat >= result.flux_ratio_linear
        assert result.decay_ratio >= 1.0


class TestSolveFpAndQy:
    def test_paper_closure(self):
        f_p, eta = solve_fp_and_qy(19.0, 1.19, 0.65)
        assert f_p == pytest.approx(29.23, abs=0.01)
        assert eta == pytest.approx(0.01, abs=1e-4)

    def test_unit_decay_ratio_gives_zero_yield(self):
        _, eta = solve_fp_and_qy(0.65 * 29.0, 1.0, 0.65)
        assert eta == 0.0

    def test_exact_round_trip(self):
        for dw, f_p, eta in [(0.65, 29.0, 0.01), (0.9, 3.0, 0.2), (0.3, 120.0, 0.001)]:
            ratios = brightening_ratios(dw, f_p, eta)
            f_back, eta_back = solve_fp_and_qy(ratios.flux_ratio_sat, ratios.decay_ratio, dw)
            assert f_back == pytest.approx(f_p, rel=1e-12)
            assert eta_back == pytest.approx(eta, rel=1e-12)

    def test_decay_ratio_below_one_rejected(self):
        with pytest.raises(ValueError, match="decay ratio"):
            solve_fp_and_qy(19.0, 0.9, 0.65)

    @given(dw=st.floats(0.05, 1.0), f_p=st.floats(0.1, 500.0), eta=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_mutual_inverse_property(self, dw, f_p, eta):
        ratios = brightening_ratios(dw, f_p, eta)
        f_back, eta_back = solve_fp_and_qy(ratios.flux_ratio_sat, ratios.decay_ratio, dw)
        assert f_back == pytest.approx(f_p, rel=1e-12)
        assert eta_back == pytest.approx(eta, rel=1e-12, abs=1e-12)


class TestBrightnessProfile:
    def test_zero_coupling_zero_brightness(self):
        grid = energy_grid(ZPL_ENERGY, 2000.0, 20.0)
        beta = brightness_profile(CouplingParams(0.0, GAMMA, KAPPA),
                                  zpl_filtered_spectrum(grid))
        assert np.all(beta.values == 0.0)

    def test_peak_value_arithmetic(self):
        # oracle: g^2 S~max/gamma = 625*4/287/2.571 = 3.389 -> 3.389/4.389
        grid = energy_grid(ZPL_ENERGY, 2000.0, 20.0)
        s = zpl_filtered_spectrum(grid, dw=1.0, gamma_star=200.0, kappa=87.0)
        beta = brightness_profile(CouplingParams(25.0, 2.571, 87.0), s)
        rate = 25.0 ** 2 * (4.0 / 287.0) / 2.571
        assert rate == pytest.approx(3.389, abs=2e-3)
        assert beta.values.max() == pytest.approx(rate / (1.0 + rate), rel=1e-4)
        assert beta.values.max() == pytest.approx(0.772, abs=1e-3)

    def test_saturates_toward_one(self):
        grid = energy_grid(ZPL_ENERGY, 2000.0, 20.0)
        s = zpl_filtered_spectrum(grid)
        peaks = [brightness_profile(CouplingParams(g, GAMMA, KAPPA), s).values.max()
                 for g in (5.0, 25.0, 100.0, 800.0)]
        assert all(a < b for a, b in zip(peaks, peaks[1:]))
        assert peaks[-1] < 1.0
        assert peaks[-1] > 0.999

    def test_bounded_and_monotone_in_g(self):
        grid = energy_grid(ZPL_ENERGY, 2000.0, 20.0)
        s = zpl_filtered_spectrum(grid, dw=0.65)
        beta_lo = brightness_profile(CouplingParams(5.0, GAMMA, KAPPA), s)
        beta_hi = brightness_profile(CouplingParams(10.0, GAMMA, KAPPA), s)
        assert np.all((beta_lo.values >= 0) & (beta_lo.values < 1))
        assert np.all(beta_hi.values >= beta_lo.values)

    def test_absorption_term_reduces_brightness(self):
        grid = energy_grid(ZPL_ENERGY, 2000.0, 20.0)
        s = zpl_filtered_spectrum(grid)
        cp = CouplingParams(25.0, GAMMA, KAPPA)
        without = brightness_profile(cp, s)
        with_abs = brightness_profile(cp, s, s)
        assert np.all(with_abs.values <= without.values)

    def test_grid_mismatch_rejected(self):
        grid_a = energy_grid(ZPL_ENERGY, 2000.0, 20.0)
        grid_b = energy_grid(ZPL_ENERGY, 2000.0, 10.0)
        with pytest.raises(ValueError, match="grid"):
            brightness_profile(CouplingParams(25.0, GAMMA, KAPPA),
                               zpl_filtered_spectrum(grid_a),
                               zpl_filtered_spectrum(grid_b))


class TestCouplingParams:
    def test_derived_a(self):
        cp = CouplingParams(25.0, 2.571, 87.0)
        assert cp.a == pytest.approx(625.0 / 2.571, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            CouplingParams(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            CouplingParams(1.0, 0.0, 1.0)


class TestSteadyState:
    def test_zero_pump(self):
        result = steady_state(0.0, CouplingParams(25.0, GAMMA, KAPPA), 0.01, 0.0)
        assert result.exciton_population == 0.0
        assert result.photon_number == 0.0

    def test_zero_coupling(self):
        pump = 1e-4
        result = steady_state(pump, CouplingParams(0.0, GAMMA, KAPPA), 0.01, 0.0)
        assert result.photon_number == 0.0
        assert result.exciton_population == pytest.approx(pump / GAMMA, rel=1e-12)

    def test_photon_number_identity(self):
        # oracle: <n> = (pump/kappa) * beta against the 2x2 linear solve
        rng = np.random.default_rng(42)
        for _ in range(1000):
            g, gamma, kappa = rng.uniform(0.01, 50.0, 3)
            s_emi, s_abs = rng.uniform(0.0, 0.1, 2)
            pump = rng.uniform(0.0, 0.01)
            cp = CouplingParams(g, gamma, kappa)
            result = steady_state(pump, cp, s_emi, s_abs)
            rate_e = g * g * s_emi / gamma
            rate_a = g * g * s_abs / kappa
            beta = rate_e / (1.0 + rate_e + rate_a)
            assert result.photon_number == pytest.approx(
                pump / kappa * beta, rel=1e-10, abs=1e-300)

    def test_weak_pump_flag(self):
        cp = CouplingParams(0.0, GAMMA, KAPPA)
        strong = steady_state(GAMMA, cp, 0.0, 0.0)  # exciton population 1
        assert not strong.weak_pump
        weak = steady_state(GAMMA * 1e-3, cp, 0.0, 0.0)
        assert weak.weak_pump


class TestModulationEnvelope:
    # the swept envelope E_mod = L_kappa * beta is spectra.convolve_lorentzian
    def test_constant_profile_preserved(self):
        grid = energy_grid(0.0, 50000.0, 10.0)
        beta = Spectrum(grid, np.full(grid.size, 0.4))
        out = spectra.convolve_lorentzian(beta, 60.0)
        central = np.abs(grid) <= 10000.0
        assert np.allclose(out.values[central], 0.4, rtol=2e-3)

    def test_delta_limit(self):
        # Lorentzian tails make the approach to beta first order in
        # kappa, so a 10x kappa reduction shrinks the error ~10x
        grid = energy_grid(0.0, 4000.0, 0.25)
        beta = Spectrum(grid, 0.7 * np.exp(-0.5 * (grid / 300.0) ** 2))
        central = np.abs(grid) <= 1500.0
        errors = []
        for kappa in (50.0, 5.0):
            out = spectra.convolve_lorentzian(beta, kappa)
            errors.append(np.max(np.abs(out.values[central] - beta.values[central])))
        assert errors[1] <= errors[0] / 8.0

    def test_grid_resolution_guard(self):
        grid = energy_grid(0.0, 1000.0, 10.0)
        beta = Spectrum(grid, np.ones(grid.size))
        with pytest.raises(ValueError, match="resolution"):
            spectra.convolve_lorentzian(beta, 20.0)


class TestInvertEnvelope:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(3)
        grid = np.arange(256.0)
        for _ in range(50):
            s_values = np.abs(np.sum([
                rng.uniform(0.1, 2.0) * lorentzian(grid, rng.uniform(40, 200), rng.uniform(5, 50))
                for _ in range(4)], axis=0))
            a = rng.uniform(0.1, 100.0)
            c = rng.uniform(0.5, 10.0)
            envelope = Spectrum(grid, hill_envelope(a, s_values, c=c))
            recovered = invert_envelope(envelope, a, c)
            mask = s_values > 1e-9
            assert np.allclose(recovered.values[mask], s_values[mask], rtol=1e-12)

    def test_linear_regime(self):
        grid = np.arange(64.0)
        s_values = 1e-6 * (1.0 + np.sin(grid / 10.0) ** 2)
        a, c = 2.0, 5.0
        envelope = Spectrum(grid, hill_envelope(a, s_values, c=c))
        recovered = invert_envelope(envelope, a, c)
        # E << c: S ~ E/(a c) to first order
        assert np.allclose(recovered.values, envelope.values / (a * c), rtol=1e-5)

    def test_denominator_failure_reports_energy(self):
        grid = np.arange(10.0)
        values = np.concatenate([np.full(5, 0.1), np.full(5, 2.0)])
        envelope = Spectrum(grid, values)
        with pytest.raises(ValueError, match="energy 5"):
            invert_envelope(envelope, 1.0, 1.5)

    def test_device_parameter_envelope_inverts_to_filtered_spectrum(
            self, paper_grid, paper_fs_spectrum):
        # forward pipeline oracle: the synthetic envelope at g = 25 ueV
        # inverts back onto the doubly filtered spectrum
        s_dtilde = spectra.convolve_lorentzian(
            spectra.convolve_lorentzian(paper_fs_spectrum, KAPPA), KAPPA)
        a = 25.0 ** 2 / GAMMA
        c = 2.9
        envelope = Spectrum(paper_grid, hill_envelope(a, s_dtilde.values, c=c))
        recovered = invert_envelope(envelope, a, c)
        peak = int(np.argmax(s_dtilde.values))
        assert recovered.values[peak] == pytest.approx(s_dtilde.values[peak], rel=1e-3)


class TestFitGFromEnvelope:
    def test_noiseless_recovery(self, paper_model, paper_grid, paper_fs_spectrum):
        s_dtilde = spectra.convolve_lorentzian(
            spectra.convolve_lorentzian(paper_fs_spectrum, KAPPA), KAPPA)
        for g_true in (5.0, 25.0):
            a_true = g_true ** 2 / GAMMA
            envelope = Spectrum(paper_grid, hill_envelope(a_true, s_dtilde.values, c=3.3))
            fit = fit_g_from_envelope(envelope, s_dtilde, GAMMA)
            assert fit.converged
            assert fit.g_uev == pytest.approx(g_true, rel=1e-3)

    def test_reported_c_matches_scale(self, paper_grid, paper_fs_spectrum):
        s_dtilde = spectra.convolve_lorentzian(
            spectra.convolve_lorentzian(paper_fs_spectrum, KAPPA), KAPPA)
        a_true = 10.0 ** 2 / GAMMA
        c_true = 3.3
        envelope = Spectrum(paper_grid, hill_envelope(a_true, s_dtilde.values, c=c_true))
        fit = fit_g_from_envelope(envelope, s_dtilde, GAMMA)
        assert fit.c == pytest.approx(c_true, rel=1e-3)
        record = fit.to_record()
        assert set(record) == {"g_ueV", "a", "c", "residual", "iterations", "converged", "flag"}
        assert record["g_ueV"] == fit.g_uev

    def test_zero_envelope_flags_noise_floor(self, paper_grid, paper_fs_spectrum):
        envelope = Spectrum(paper_grid, np.zeros(paper_grid.size))
        fit = fit_g_from_envelope(envelope, paper_fs_spectrum, GAMMA)
        assert fit.flag == "below-noise-floor"
        assert fit.g_uev == 0.0

    def test_unsaturated_envelope_flags_noise_floor(self, paper_fs_spectrum):
        # an envelope proportional to S itself is the a -> 0 limit
        s_dtilde = spectra.convolve_lorentzian(
            spectra.convolve_lorentzian(paper_fs_spectrum, KAPPA), KAPPA)
        fit = fit_g_from_envelope(s_dtilde, s_dtilde, GAMMA)
        assert fit.flag == "below-noise-floor"
        assert fit.converged

    def test_flat_envelope_flags_upper_bound(self, paper_grid, paper_fs_spectrum):
        # a flat envelope is the fully saturated a -> infinity limit
        s_dtilde = spectra.convolve_lorentzian(
            spectra.convolve_lorentzian(paper_fs_spectrum, KAPPA), KAPPA)
        envelope = Spectrum(paper_grid, np.ones(paper_grid.size))
        fit = fit_g_from_envelope(envelope, s_dtilde, GAMMA)
        assert fit.flag == "at-upper-bound"
        assert fit.converged

    @pytest.mark.parametrize("flat, flag", [
        (False, "not-converged"),
        (True, "at-upper-bound;not-converged"),
    ])
    def test_unconverged_search_is_flagged_and_warns_once(
            self, monkeypatch, paper_grid, paper_fs_spectrum, flat, flag):
        def unconverged(*args, **kwargs):
            # the real search's result, reported as stopped at maxiter
            return *_brent_bounded(*args, **kwargs)[:3], False

        monkeypatch.setattr("cavqed.cqed._brent_bounded", unconverged)
        s_dtilde = spectra.convolve_lorentzian(
            spectra.convolve_lorentzian(paper_fs_spectrum, KAPPA), KAPPA)
        values = np.ones(paper_grid.size) if flat \
            else hill_envelope(10.0 ** 2 / GAMMA, s_dtilde.values, c=3.3)
        with pytest.warns(UserWarning, match="did not converge") as record:
            fit = fit_g_from_envelope(Spectrum(paper_grid, values), s_dtilde, GAMMA)
        assert len(record) == 1
        assert fit.flag == flag and not fit.converged

    def test_normalized_model_peaks_at_one(self, paper_fs_spectrum):
        # the scale c = (1 + a*S_max)/(a*S_max) the fit compares the
        # measured envelope over its maximum with
        s_dtilde = spectra.convolve_lorentzian(
            spectra.convolve_lorentzian(paper_fs_spectrum, KAPPA), KAPPA)
        s_max = s_dtilde.values.max()
        for a in (0.1, 10.0, 1000.0):
            model = hill_envelope(a, s_dtilde.values, c=(1.0 + a * s_max) / (a * s_max))
            assert model.max() == pytest.approx(1.0, rel=1e-12)

    def test_grid_mismatch_rejected(self, paper_fs_spectrum):
        grid = energy_grid(ZPL_ENERGY, 1000.0, 10.0)
        envelope = Spectrum(grid, np.ones(grid.size))
        with pytest.raises(ValueError, match="grid"):
            fit_g_from_envelope(envelope, paper_fs_spectrum, GAMMA)


def _costs(c, w):
    return {
        "smooth": lambda x: float((x - c) ** 2 + w * np.sin(3.0 * x)),
        "kink": lambda x: float(abs(x - c) ** 1.5),
        "slope": lambda x: -x,
        "flat": lambda x: 1.0,
    }


class TestBrentBounded:
    @given(c=st.floats(-5.0, 5.0), w=st.floats(-1.0, 1.0),
           lo=st.floats(-20.0, 0.0), width=st.floats(1e-3, 30.0),
           cost=st.sampled_from(["smooth", "kink", "slope", "flat"]),
           xatol=st.sampled_from([1e-9, 1e-6, 1e-3]), maxiter=st.sampled_from([12, 200]))
    @settings(max_examples=150, deadline=None)
    def test_same_iterate_as_scipy_bit_for_bit(self, c, w, lo, width, cost, xatol, maxiter):
        from scipy.optimize import minimize_scalar

        f = _costs(c, w)[cost]
        hi = lo + width
        ref = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol, "maxiter": maxiter})
        x, fx, nfev, converged = _brent_bounded(f, lo, hi, xatol, maxiter)
        assert (x, fx, nfev, converged) == (ref.x, ref.fun, ref.nfev, ref.success)

    def test_stops_at_maxiter_unconverged(self):
        x, fx, nfev, converged = _brent_bounded(lambda x: (x - 0.3) ** 2, -1.0, 1.0, 1e-12, 5)
        assert (nfev, converged) == (5, False)
        assert fx == (x - 0.3) ** 2

    def test_nan_cost_is_not_converged(self):
        assert _brent_bounded(lambda x: float("nan"), 0.0, 1.0, 1e-6, 200)[3] is False


class TestGFromLifetime:
    def test_unit_case(self):
        assert g_from_lifetime(4.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_paper_value(self):
        # oracle: 0.5 sqrt(200 * 0.19*2.5711 / 0.65) = 6.13
        delta_gamma = 0.19 * GAMMA
        expected = 0.5 * np.sqrt(200.0 * delta_gamma / 0.65)
        got = g_from_lifetime(200.0, delta_gamma, 0.65)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(6.13, abs=0.01)

    def test_ratio_to_spectral_estimate(self):
        got = g_from_lifetime(200.0, 0.19 * GAMMA, 0.65)
        assert 3.0 <= 25.0 / got <= 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            g_from_lifetime(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            g_from_lifetime(1.0, 1.0, 1.5)
