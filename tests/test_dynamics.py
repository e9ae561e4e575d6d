import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavqed import dynamics
from cavqed.dynamics import (
    DecayTrace,
    LevelScheme,
    apply_background,
    fit_biexponential,
    fit_saturation,
    g2_correlation,
    g2_eigenrates,
    g2_emitter_cw,
    pulsed_g2_comb,
    pulsed_g2_zero,
    qy_from_saturation,
    saturation_curve,
    simulate_decay,
)
from cavqed.spectra import fft_convolver
from cavqed.units import HBAR_UEV_PS

GAMMA_FS = HBAR_UEV_PS / 256.0

PAPER_SCHEME = LevelScheme(pump_uev=0.374, gamma_total_uev=GAMMA_FS,
                           k_shelve_uev=0.12, k_deshelve_uev=0.0508598,
                           background=0.2)


def default_grid(bin_ps=4.0, t_max=1536.0):
    return np.arange(-np.ceil(160.0 / bin_ps), np.ceil(t_max / bin_ps) + 1) * bin_ps


def poisson_trace(seed, decay_ratio=1.0, peak=1e5, weights=(2.0, 1.0)):
    clean = simulate_decay(GAMMA_FS, decay_ratio, weights, 23.0, 32.0, default_grid())
    scale = peak / clean.counts.max()
    rng = np.random.Generator(np.random.Philox(seed=[17, seed]))
    noisy = rng.poisson(clean.counts * scale).astype(float)
    return DecayTrace(clean.time_ps, noisy, 32.0)


class TestSimulateDecay:
    def test_unit_ratio_is_free_space(self):
        grid = default_grid()
        fs = simulate_decay(GAMMA_FS, 1.0, (2.0, 1.0), 23.0, 32.0, grid)
        again = simulate_decay(GAMMA_FS, 1.0, (2.0, 1.0), 23.0, 32.0, grid)
        assert np.array_equal(fs.counts, again.counts)

    def test_cavity_long_lifetime_scales(self):
        # 256 ps / 1.19 = 215.1 ps, matching the measured 216 +- 15 ps
        grid = default_grid()
        trace = simulate_decay(GAMMA_FS, 1.19, (2.0, 1.0), 23.0, 0.0, grid)
        fit = fit_biexponential(trace)
        assert fit.tau2_ps == pytest.approx(256.0 / 1.19, rel=1e-4)
        assert fit.tau2_ps == pytest.approx(216.0, abs=15.0)

    def test_zero_irf_fit_recovers_exactly(self):
        grid = default_grid(2.0)
        trace = simulate_decay(GAMMA_FS, 1.0, (3.0, 1.5), 23.0, 0.0, grid)
        fit = fit_biexponential(trace)
        assert fit.converged
        assert fit.tau1_ps == pytest.approx(23.0, rel=1e-6)
        assert fit.tau2_ps == pytest.approx(256.0, rel=1e-6)
        assert fit.a1 == pytest.approx(3.0, rel=1e-5)
        assert fit.a2 == pytest.approx(1.5, rel=1e-5)

    def test_grid_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            simulate_decay(GAMMA_FS, 1.0, (2.0, 1.0), 23.0, 32.0,
                           np.arange(-40, 100) * 4.0)

    def test_counts_conserved_by_irf(self):
        grid = default_grid(2.0)
        sharp = simulate_decay(GAMMA_FS, 1.0, (2.0, 1.0), 23.0, 0.0, grid)
        blurred = simulate_decay(GAMMA_FS, 1.0, (2.0, 1.0), 23.0, 32.0, grid)
        assert blurred.counts.sum() == pytest.approx(sharp.counts.sum(), rel=1e-4)

    @pytest.mark.parametrize("irf", [-5.0, float("nan")])
    def test_negative_or_nan_irf_rejected(self, irf):
        with pytest.raises(ValueError, match="IRF FWHM"):
            simulate_decay(GAMMA_FS, 1.0, (2.0, 1.0), 23.0, irf, default_grid())
        with pytest.raises(ValueError, match="IRF FWHM"):
            g2_correlation(PAPER_SCHEME, np.arange(-100, 101) * 4.0, irf=irf)


class TestFitBiexponential:
    def test_poisson_monte_carlo(self):
        taus1, taus2, weights = [], [], []
        for seed in range(25):
            fit = fit_biexponential(poisson_trace(seed))
            assert fit.converged
            taus1.append(fit.tau1_ps)
            taus2.append(fit.tau2_ps)
            weights.append(fit.long_weight)
        assert np.max(np.abs(np.array(taus1) - 23.0)) < 5.0
        assert np.max(np.abs(np.array(taus2) - 256.0)) < 4.0
        assert min(weights) > 0.8

    def test_randomized_tau_sweep(self):
        # randomized ratios tau2/tau1 in [3, 30]: fits recover both taus
        rng = np.random.default_rng(99)
        for _ in range(20):
            tau1 = rng.uniform(15.0, 60.0)
            ratio = rng.uniform(3.0, 30.0)
            tau2 = tau1 * ratio
            grid = np.arange(-40, int(7 * tau2 / 4.0)) * 4.0
            clean = simulate_decay(HBAR_UEV_PS / tau2, 1.0, (2.0, 1.0), tau1, 32.0, grid)
            scale = 1e5 / clean.counts.max()
            noisy = rng.poisson(clean.counts * scale).astype(float)
            fit = fit_biexponential(DecayTrace(grid, noisy, 32.0))
            assert fit.tau2_ps == pytest.approx(tau2, rel=0.05)
            assert fit.tau1_ps == pytest.approx(tau1, rel=0.25)

    def test_absent_short_component_gives_unit_long_weight(self):
        # the short amplitude is fitted to ~0 rather than collapsed
        grid = default_grid(2.0)
        trace = simulate_decay(GAMMA_FS, 1.0, (0.0, 2.0), 23.0, 32.0, grid)
        fit = fit_biexponential(trace)
        assert fit.long_weight == pytest.approx(1.0, abs=1e-6)
        assert fit.a2 * fit.tau2_ps / (fit.a1 * fit.tau1_ps + fit.a2 * fit.tau2_ps) \
            == pytest.approx(1.0, abs=1e-6)

    def test_close_lifetimes_collapse_to_monoexponential(self):
        # 246 and 256 ps lie within the 5% collapse tolerance
        grid = np.arange(-40, 400) * 4.0
        trace = simulate_decay(HBAR_UEV_PS / 256.0, 1.0, (2.0, 1.0), 246.0, 0.0, grid)
        fit = fit_biexponential(trace)
        assert fit.flag == "degenerate-collapsed-to-monoexponential"
        assert fit.tau1_ps == fit.tau2_ps
        assert fit.tau1_ps == pytest.approx(249.34, abs=0.01)
        assert fit.a1 == 0.0
        assert fit.long_weight == 1.0
        assert fit.converged

    def test_swapped_lifetimes_keep_their_sigmas(self):
        # the solver ends with x[0] > x[1] on this single-lifetime trace;
        # reordering the lifetimes must reorder their sigmas too
        grid = np.arange(-40, 400) * 4.0
        clean = simulate_decay(HBAR_UEV_PS / 256.0, 1.0, (1.0, 1.0), 256.0, 32.0, grid)
        rng = np.random.default_rng(0)
        counts = rng.poisson(clean.counts * (1e5 / clean.counts.max())).astype(float)
        fit = fit_biexponential(DecayTrace(grid, counts, 32.0))
        assert fit.tau1_ps == pytest.approx(256.0, abs=1.0)
        assert fit.tau1_ps < fit.tau2_ps
        # the well-determined lifetime has the small sigma; the one of
        # the vanishing second amplitude is undetermined
        assert fit.sigma_tau1_ps < 1.0
        assert fit.sigma_tau2_ps > fit.tau2_ps

    def test_long_weight_definition(self):
        fit = fit_biexponential(poisson_trace(3))
        expected = fit.a2 * fit.tau2_ps / (fit.a1 * fit.tau1_ps + fit.a2 * fit.tau2_ps)
        assert fit.long_weight == pytest.approx(expected, rel=1e-12)
        assert fit.tau1_ps < fit.tau2_ps
        assert set(fit.to_record()) == {"tau1_ps", "tau2_ps", "a1", "a2", "long_weight",
                                        "sigma_tau1_ps", "sigma_tau2_ps", "converged", "flag"}

    def test_irf_kernel_is_transformed_once_per_trace(self, monkeypatch):
        # every residual evaluation reuses the trace's one convolver
        built = []

        def counting(kernel, n):
            built.append(n)
            return fft_convolver(kernel, n)

        trace = poisson_trace(0)
        monkeypatch.setattr(dynamics, "fft_convolver", counting)
        assert fit_biexponential(trace).converged
        assert built == [trace.time_ps.size]

    @pytest.mark.parametrize("irf", [0.0, 32.0])
    def test_model_rows_are_single_evaluations(self, irf):
        # (k, 1) parameter columns give k rows, each the model at one point
        t = default_grid()
        model = dynamics._decay_model(t, dynamics._irf_convolver(irf, 4.0, t.size))
        params = np.array([[23.0, 256.0, 2.0, 1.0], [40.0, 90.0, 0.0, 3.0],
                           [5.0, 5.0, 1e-3, 1e4], [30.0, 200.0, 0.0, 0.0]])
        rows = model(*dynamics._columns(params))
        assert rows.shape == (4, t.size)
        for row, point in zip(rows, params):
            assert np.array_equal(row, model(*point))
        assert not rows[3].any()

    def test_convolved_rows_keep_their_own_counts(self):
        convolve = dynamics._irf_convolver(32.0, 4.0, 100)
        rng = np.random.default_rng(8)
        rows = np.stack([rng.exponential(size=100), np.zeros(100),
                         -rng.exponential(size=100)])
        got = dynamics._convolve_centered(rows, convolve)
        for row, values in zip(got, rows):
            assert np.array_equal(row, dynamics._convolve_centered(values, convolve))
        assert got[0].sum() == pytest.approx(rows[0].sum(), rel=1e-12)
        # a row whose convolved sum is not positive is left unscaled
        assert np.array_equal(got[2], convolve(rows[2]))

    def test_needs_enough_bins(self):
        with pytest.raises(ValueError, match="50 bins"):
            fit_biexponential(DecayTrace(np.arange(10.0), np.ones(10), 32.0))

    def test_needs_counts(self):
        with pytest.raises(ValueError, match="no counts"):
            fit_biexponential(DecayTrace(np.arange(60.0), np.zeros(60), 32.0))


class TestDecayTraceType:
    def test_nonuniform_bins_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            DecayTrace(np.array([0.0, 1.0, 3.0]), np.ones(3))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DecayTrace(np.arange(3.0), np.array([1.0, -1.0, 1.0]))


class TestSaturation:
    def test_cw_half_at_p_sat(self):
        assert saturation_curve(np.array([1000.0]), 2.0, 1000.0, "cw")[0] \
            == pytest.approx(1.0, rel=1e-12)

    def test_pulsed_at_p_sat(self):
        got = saturation_curve(np.array([1000.0]), 1.0, 1000.0, "pulsed")[0]
        assert got == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("mode", ["cw", "pulsed"])
    def test_monotone_and_bounded(self, mode):
        # stay below ~30 P_sat so the pulsed exponential tail is still
        # resolvable in float64
        powers = np.geomspace(1.0, 3e4, 200)
        curve = saturation_curve(powers, 1768.0, 1000.0, mode)
        assert np.all(np.diff(curve) > 0)
        assert np.all(curve < 1768.0)

    @pytest.mark.parametrize("mode", ["cw", "pulsed"])
    def test_fit_recovery_under_noise(self, mode):
        powers = np.geomspace(30.0, 30000.0, 25)
        clean = saturation_curve(powers, 1768.0, 1000.0, mode)
        errors_i, errors_p = [], []
        for trial in range(25):
            rng = np.random.Generator(np.random.Philox(seed=[13, trial]))
            noisy = clean * (1.0 + 0.01 * rng.standard_normal(clean.size))
            fit = fit_saturation(powers, noisy, mode)
            assert fit.converged
            errors_i.append(abs(fit.i_sat - 1768.0) / 1768.0)
            errors_p.append(abs(fit.p_sat - 1000.0) / 1000.0)
        assert np.percentile(errors_i, 95) < 0.03
        assert np.percentile(errors_p, 95) < 0.03


    @pytest.mark.parametrize("counts", [[-1.0, -2.0, -3.0, -3.5], [0.0, 0.0, 0.0, 0.0]])
    def test_fit_needs_a_positive_count(self, counts):
        with pytest.raises(ValueError, match="no positive value"):
            fit_saturation(np.array([0.0, 1.0, 2.0, 4.0]), np.array(counts))

    @pytest.mark.parametrize("powers, counts", [
        ([0.0, 1.0, 2.0, 4.0], [np.nan, 1.0, 2.0, 3.0]),
        ([0.0, 1.0, np.inf, 4.0], [0.5, 1.0, 2.0, 3.0]),
        ([0.0, np.nan, 2.0, 4.0], [0.5, 1.0, 2.0, 3.0]),
    ])
    def test_fit_needs_finite_data(self, powers, counts):
        with pytest.raises(ValueError, match="must be finite"):
            fit_saturation(powers, counts)

    def test_fit_checks_the_mode(self):
        with pytest.raises(ValueError, match="mode must be 'cw' or 'pulsed'"):
            fit_saturation([0.0, 1.0, 2.0, 4.0], [0.5, 1.0, 2.0, 3.0], "square")

    @given(powers=st.lists(st.floats(0.0, 1e300), min_size=3, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_starting_power_is_numpys_median(self, powers):
        # the fit's start uses the sorted middle, which must be np.median's
        # value bit for bit (np.median would import numpy.ma)
        assert dynamics._median(np.array(powers)) == float(np.median(powers))


class TestQuantumYield:
    def test_reads_off_product(self):
        assert qy_from_saturation(0.0066 * 38.26e6, 0.0066, 38.26e6) \
            == pytest.approx(1.0, rel=1e-12)

    def test_paper_numbers(self):
        # oracle: 0.0066 * 0.007 * 38.26 MHz = 1768 counts/s
        i_sat = 0.0066 * 0.007 * 38.26e6
        assert i_sat == pytest.approx(1768.0, abs=1.0)
        assert qy_from_saturation(i_sat, 0.0066, 38.26e6) == pytest.approx(0.007, rel=1e-12)

    def test_scales_inversely_with_collection(self):
        base = qy_from_saturation(1768.0, 0.0066, 38.26e6)
        assert qy_from_saturation(1768.0, 0.0033, 38.26e6) == pytest.approx(2 * base, rel=1e-12)

    def test_unphysical_warns(self):
        with pytest.warns(UserWarning, match="unphysical"):
            qy_from_saturation(1e9, 0.0066, 38.26e6)


class TestG2:
    def test_no_shelving_no_background(self):
        scheme = LevelScheme(pump_uev=0.374, gamma_total_uev=GAMMA_FS)
        tau = np.arange(-5000, 5001) * 2.0
        g2 = g2_correlation(scheme, tau, irf=0.0)
        izero = tau.size // 2
        assert g2[izero] == pytest.approx(0.0, abs=1e-12)
        assert g2[-1] == pytest.approx(1.0, abs=1e-6)
        assert g2.max() <= 1.0 + 1e-9

    def test_background_floor_formula(self):
        # g2(0) = b(2 - b) exactly when the emitter term vanishes
        for b in (0.1, 0.2, 0.5):
            assert apply_background(0.0, b) == pytest.approx(b * (2.0 - b), rel=1e-12)

    def test_paper_scheme_raw_and_corrected(self):
        tau = np.arange(-3000, 3001) * 1.0
        g2 = g2_correlation(PAPER_SCHEME, tau, irf=32.0)
        assert g2[tau.size // 2] == pytest.approx(0.40, abs=0.01)
        assert apply_background(0.0, PAPER_SCHEME.background) == pytest.approx(0.36, rel=1e-12)

    def test_bunching_timescale(self):
        fast, slow = g2_eigenrates(PAPER_SCHEME)
        assert 1.0 / slow == pytest.approx(10000.0, rel=0.01)
        tau = np.arange(-15000, 15001) * 4.0
        g2 = g2_correlation(PAPER_SCHEME, tau, irf=32.0)
        mask = (tau > 2.0 / fast) & (g2 > 1.0 + 1e-4)
        slope = np.polyfit(tau[mask], np.log(g2[mask] - 1.0), 1)[0]
        assert -1.0 / slope == pytest.approx(10000.0, rel=0.10)

    def test_g2_relaxes_to_one(self):
        tau = np.arange(-30000, 30001) * 8.0
        for scheme in (PAPER_SCHEME,
                       LevelScheme(0.1, GAMMA_FS, 0.05, 0.02, 0.0)):
            g2 = g2_correlation(scheme, tau, irf=0.0)
            assert g2[0] == pytest.approx(1.0, abs=1e-3)
            assert g2[-1] == pytest.approx(1.0, abs=1e-3)

    def test_emitter_g2_from_eigensystem_matches_closed_form(self):
        # two-level limit: g2 = 1 - exp(-(pump+gamma) t)
        scheme = LevelScheme(pump_uev=0.3, gamma_total_uev=2.0)
        tau = np.linspace(0.0, 4000.0, 64)
        expected = 1.0 - np.exp(-(0.3 + 2.0) / HBAR_UEV_PS * tau)
        assert np.allclose(g2_emitter_cw(scheme, tau), expected, atol=1e-10)

    def test_pulsed_zero_peak_suppressed(self):
        f_rep = 38.26e6
        tau = np.arange(-60000, 60001) * 8.0
        g2 = pulsed_g2_comb(PAPER_SCHEME, tau, f_rep, irf=32.0)
        ratio = pulsed_g2_zero(tau, g2, f_rep)
        floor = PAPER_SCHEME.background * (2.0 - PAPER_SCHEME.background)
        assert ratio == pytest.approx(floor, rel=0.1)
        assert ratio < 0.5

    def test_pulsed_without_background_antibunches_fully(self):
        scheme = LevelScheme(pump_uev=0.374, gamma_total_uev=GAMMA_FS,
                             k_shelve_uev=0.12, k_deshelve_uev=0.0508598)
        f_rep = 38.26e6
        tau = np.arange(-60000, 60001) * 8.0
        g2 = pulsed_g2_comb(scheme, tau, f_rep, irf=32.0)
        assert pulsed_g2_zero(tau, g2, f_rep) == pytest.approx(0.0, abs=1e-6)

    def test_asymmetric_grid_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            g2_correlation(PAPER_SCHEME, np.arange(0.0, 100.0))
        with pytest.raises(ValueError, match="symmetric"):
            pulsed_g2_comb(PAPER_SCHEME, np.arange(0.0, 100.0), 38.26e6)

    def test_shelving_needs_deshelving(self):
        with pytest.raises(ValueError, match="deshelving"):
            LevelScheme(0.3, 2.0, k_shelve_uev=0.1, k_deshelve_uev=0.0)

    @given(pump=st.floats(0.05, 2.0), k_s=st.floats(0.0, 0.3), k_d=st.floats(0.01, 0.3),
           b=st.floats(0.0, 0.8))
    @settings(max_examples=30, deadline=None)
    def test_g2_zero_formula_property(self, pump, k_s, k_d, b):
        scheme = LevelScheme(pump, GAMMA_FS, k_s, k_d, b)
        tau = np.arange(-500, 501) * 2.0
        g2 = g2_correlation(scheme, tau, irf=0.0)
        assert g2[tau.size // 2] == pytest.approx(b * (2.0 - b), rel=1e-9, abs=1e-12)
