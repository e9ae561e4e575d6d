import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavqed import cqed, dynamics, spectra
from cavqed.dynamics import DecayTrace, LevelScheme, g2_correlation
from cavqed.spectra import (
    EmitterModel,
    Spectrum,
    absorption_spectrum,
    build_fs_spectrum,
    convolve_lorentzian,
    debye_waller,
    energy_grid,
    fft_convolver,
    lorentzian,
    parse_two_column_csv,
    s_tilde_max,
    sideband_profile,
    uniform_step,
)
from cavqed.units import bose_occupation

from conftest import lorentzian_area2pi, measure_fwhm


class TestSpectrumType:
    def test_rejects_nonuniform_grid(self):
        grid = np.array([0.0, 1.0, 2.5, 3.0])
        with pytest.raises(ValueError, match="^grid must be uniform to 1 part in 1e9$"):
            Spectrum(grid, np.ones(4))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Spectrum(np.arange(4.0), np.array([1.0, -0.1, 1.0, 1.0]))

    def test_rejects_descending_grid(self):
        with pytest.raises(ValueError, match="ascending"):
            Spectrum(np.arange(4.0)[::-1], np.ones(4))

    def test_values_are_immutable(self):
        s = Spectrum(np.arange(4.0), np.ones(4))
        with pytest.raises(ValueError):
            s.values[0] = 2.0


# every grid below is symmetric about zero, so the g2 tau-grid symmetry
# check passes and only the uniform-grid check can reject it
_GOOD_GRID = np.arange(-4.0, 5.0)
_BAD_GRIDS = {
    "nan": (np.where(_GOOD_GRID == 2.0, np.nan, _GOOD_GRID), "finite"),
    "inf": (np.where(_GOOD_GRID == 1.0, np.inf, _GOOD_GRID), "finite"),
    "nonuniform": (np.array([-4.0, -3.0, -2.0, -0.5, 0.0, 0.5, 2.0, 3.0, 4.0]), "uniform"),
    "descending": (_GOOD_GRID[::-1].copy(), "ascending"),
}
_GRID_USERS = {
    "Spectrum": lambda grid, values: Spectrum(grid, values),
    "DecayTrace": lambda grid, values: DecayTrace(grid, values, 32.0),
    "g2_correlation": lambda grid, values: g2_correlation(
        LevelScheme(0.5, 2.5, 0.0, 0.0, 0.0), grid, irf=0.0),
}


class TestUniformGrid:
    def test_step_of_a_uniform_grid(self):
        assert uniform_step(0.5 * _GOOD_GRID) == 0.5

    @pytest.mark.parametrize("user", sorted(_GRID_USERS))
    def test_good_grid_accepted(self, user):
        _GRID_USERS[user](_GOOD_GRID, np.ones(_GOOD_GRID.size))

    @pytest.mark.parametrize("user", sorted(_GRID_USERS))
    @pytest.mark.parametrize("bad", sorted(_BAD_GRIDS))
    def test_bad_grid_rejected(self, user, bad):
        grid, message = _BAD_GRIDS[bad]
        with pytest.raises(ValueError, match=message):
            _GRID_USERS[user](grid, np.ones(grid.size))

    @pytest.mark.parametrize("user", ["Spectrum", "DecayTrace"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_value_rejected(self, user, bad):
        values = np.ones(_GOOD_GRID.size)
        values[3] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            _GRID_USERS[user](_GOOD_GRID, values)


_CURVE_BUILDERS = {
    "Spectrum": lambda grid, values: Spectrum(grid, values),
    "DecayTrace": lambda grid, values: DecayTrace(grid, values, 32.0),
    "build_fs_spectrum": lambda grid, values: build_fs_spectrum(
        EmitterModel(0.0, 50.0, 0.8), grid),
    "simulate_decay": lambda grid, values: dynamics.simulate_decay(
        2.5, 1.0, (2.0, 1.0), 23.0, 32.0, grid),
}


class TestCurveContract:
    """A curve owns read-only copies of writable inputs, derived curves
    share their parent's grid, and its step is read, not recomputed."""

    @pytest.mark.parametrize("builder", sorted(_CURVE_BUILDERS))
    def test_caller_arrays_stay_writable(self, builder):
        grid = energy_grid(500.0, 1500.0, 4.0)
        values = np.ones(grid.size)
        curve = _CURVE_BUILDERS[builder](grid, values)
        assert grid.flags.writeable and values.flags.writeable
        grid[0] = values[0] = -1.0
        for array in curve:
            if isinstance(array, np.ndarray):
                assert not array.flags.writeable and array[0] != -1.0

    @pytest.mark.parametrize("derive", ["_replace", "convolve_lorentzian",
                                        "absorption_spectrum", "brightness_profile"])
    def test_derived_curve_shares_the_grid(self, monkeypatch, derive):
        model = EmitterModel(0.0, 50.0, 0.8)
        s = build_fs_spectrum(model, energy_grid(0.0, 3000.0, 1.0))

        def fail(grid):
            raise AssertionError("a derived curve checked its parent's grid again")

        monkeypatch.setattr(spectra, "uniform_step", fail)
        derived = {
            "_replace": lambda: s._replace(values=s.values.copy()),
            "convolve_lorentzian": lambda: convolve_lorentzian(s, 40.0),
            "absorption_spectrum": lambda: absorption_spectrum(s, model),
            "brightness_profile": lambda: cqed.brightness_profile(
                cqed.CouplingParams(25.0, 2.5, 40.0), s, s),
        }[derive]()
        assert derived.energies is s.energies

    def test_step_is_stored(self, monkeypatch):
        s = Spectrum(0.5 * _GOOD_GRID, np.ones(_GOOD_GRID.size))
        trace = DecayTrace(4.0 * _GOOD_GRID, np.ones(_GOOD_GRID.size), 32.0)

        def fail(grid):
            raise AssertionError("uniform_step called on read")

        monkeypatch.setattr(spectra, "uniform_step", fail)
        monkeypatch.setattr(dynamics, "uniform_step", fail)
        assert (s.step, trace.bin_ps) == (0.5, 4.0)

    def test_replace_rebuilds_through_the_checks(self, monkeypatch):
        # new values alone keep the checked grid and its step and are
        # checked themselves; any other change rebuilds through every
        # check, and no caller sets the step
        s = Spectrum(0.5 * _GOOD_GRID, np.ones(_GOOD_GRID.size))
        trace = DecayTrace(4.0 * _GOOD_GRID, np.ones(_GOOD_GRID.size), 32.0)
        steps = []
        monkeypatch.setattr(spectra, "uniform_step",
                            lambda grid: steps.append(grid) or uniform_step(grid))
        values = np.full(_GOOD_GRID.size, 2.0)
        replaced = s._replace(values=values)
        assert (replaced.energies is s.energies, replaced.step) == (True, 0.5)
        assert replaced.values is not values and not replaced.values.flags.writeable
        recounted = trace._replace(counts=values)
        assert (recounted.time_ps is trace.time_ps, recounted[2:]) == (True, (32.0, 4.0))
        assert steps == []
        assert s._replace(energies=_GOOD_GRID).step == 1.0
        assert trace._replace(irf=0.0)[2:] == (0.0, 4.0)
        assert len(steps) == 2
        for bad in (-s.values, np.full(_GOOD_GRID.size, np.nan), np.full(_GOOD_GRID.size, np.inf)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                s._replace(values=bad)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                trace._replace(counts=bad)
        with pytest.raises(ValueError, match="same shape"):
            s._replace(values=np.ones(3))
        with pytest.raises(ValueError, match="uniform"):
            s._replace(energies=_BAD_GRIDS["nonuniform"][0])
        with pytest.raises(ValueError, match="step"):
            s._replace(step=1.0)
        with pytest.raises(ValueError, match="step"):
            s._replace(values=s.values, step=1.0)
        with pytest.raises(TypeError):
            Spectrum(s.energies, s.values, 1.0)
        assert Spectrum._fields == ("energies", "values", "step")

    @pytest.mark.parametrize("builder", ["Spectrum", "DecayTrace"])
    def test_pickle_rebuilds_through_the_checks(self, builder):
        curve = _CURVE_BUILDERS[builder](_GOOD_GRID, np.ones(_GOOD_GRID.size))
        copy = pickle.loads(pickle.dumps(curve))
        assert type(copy) is type(curve) and copy[2:] == curve[2:]
        for array, original in zip(copy[:2], curve[:2]):
            assert not array.flags.writeable and np.array_equal(array, original)


class TestConvolveSame:
    @pytest.mark.parametrize("n, k", [(1, 1), (5, 3), (4, 9), (50, 101), (1000, 41), (257, 513)])
    def test_matches_direct_convolution(self, n, k):
        rng = np.random.default_rng(1000 * n + k)
        values, kernel = rng.standard_normal(n), rng.standard_normal(k)
        half = (k - 1) // 2
        expected = np.convolve(values, kernel)[half:half + n]
        got = fft_convolver(kernel, n)(values)
        assert got.shape == (n,)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            fft_convolver(np.ones(4), 10)

    def test_fast_length_is_scipys(self):
        from scipy import fft

        for n in range(1, 20001):
            assert spectra._fast_length(n) == fft.next_fast_len(n, real=True), n

    @pytest.mark.parametrize("case", range(40))
    def test_bit_identical_to_scipy_fft(self, case):
        # round-off at the leading run of exact zeros (the bins before t0
        # of a decay trace) decides which simulated counts are zero
        from scipy import fft

        rng = np.random.default_rng(case)
        n, k = int(rng.integers(50, 5000)), 2 * int(rng.integers(0, 400)) + 1
        values = rng.exponential(size=n)
        values[:int(rng.integers(1, n // 2))] = 0.0
        kernel = np.exp(-np.linspace(-3.0, 3.0, k) ** 2)
        size = fft.next_fast_len(n + k - 1, real=True)
        full = fft.irfft(fft.rfft(values, size) * fft.rfft(kernel, size), size)
        half = (k - 1) // 2
        assert np.array_equal(fft_convolver(kernel, n)(values), full[half:half + n])

    @pytest.mark.parametrize("n, k", [(1, 1), (50, 101), (425, 41)])
    def test_convolver_takes_stacks_of_rows(self, n, k):
        # each row of a (..., n) stack is convolved as if on its own
        rng = np.random.default_rng(n + k)
        convolve = fft_convolver(rng.exponential(size=k), n)
        stack = rng.exponential(size=(2, 3, n))
        got = convolve(stack)
        assert got.shape == stack.shape
        for index in np.ndindex(2, 3):
            assert np.array_equal(got[index], convolve(stack[index]))

    def test_convolver_checks_its_length(self):
        with pytest.raises(ValueError, match="odd"):
            fft_convolver(np.ones(4), 10)
        with pytest.raises(ValueError, match="built for 10 points"):
            fft_convolver(np.ones(3), 10)(np.ones(11))
        with pytest.raises(ValueError, match="built for 10 points"):
            fft_convolver(np.ones(3), 10)(np.ones((10, 11)))


class TestBuildFsSpectrum:
    def test_pure_lorentzian_peak(self):
        # area-2pi Lorentzian peaks at 4/FWHM; wide grid keeps the
        # on-grid renormalization below 1e-3
        model = EmitterModel(0.0, 10.0, 1.0, temperature_k=0.0)
        grid = energy_grid(0.0, 6000.0, 1.0)
        s = build_fs_spectrum(model, grid)
        assert s.values.max() == pytest.approx(4.0 / 10.0, rel=2e-3)

    def test_zero_temperature_kills_blue_sideband(self):
        model = EmitterModel(0.0, 200.0, 0.65, temperature_k=0.0)
        grid = energy_grid(0.0, 6000.0, 4.0)
        wing = sideband_profile(model, grid)
        red = np.trapezoid(np.where(grid < 0, wing, 0.0), grid)
        blue = np.trapezoid(np.where(grid > 0, wing, 0.0), grid)
        assert red > 0
        assert blue == 0.0

    def test_red_wing_dominates_at_any_temperature(self):
        model = EmitterModel(0.0, 200.0, 0.65, temperature_k=40.0)
        grid = energy_grid(0.0, 6000.0, 4.0)
        wing = sideband_profile(model, grid)
        red = np.trapezoid(np.where(grid < 0, wing, 0.0), grid)
        blue = np.trapezoid(np.where(grid > 0, wing, 0.0), grid)
        assert red >= blue

    def test_debye_waller_round_trip(self):
        # narrow ZPL against a broad wing: the plain windowed ratio
        # recovers the built fraction to 1e-3
        model = EmitterModel(0.0, 1.0, 0.65, temperature_k=0.0)
        grid = energy_grid(0.0, 8000.0, 0.1)
        s = build_fs_spectrum(model, grid)
        assert debye_waller(s, 100.0) == pytest.approx(0.65, abs=1e-3)

    def test_paper_like_dw_in_range(self, paper_model, paper_fs_spectrum):
        measured = debye_waller(paper_fs_spectrum, 3.0 * paper_model.zpl_fwhm_uev)
        assert 0.6 <= measured <= 0.8

    def test_positive_everywhere(self, paper_fs_spectrum):
        assert np.all(paper_fs_spectrum.values > 0)

    def test_area_is_2pi(self, paper_fs_spectrum):
        assert paper_fs_spectrum.area() == pytest.approx(2.0 * np.pi, rel=1e-9)

    def test_grid_too_coarse_rejected(self):
        model = EmitterModel(0.0, 10.0, 1.0)
        with pytest.raises(ValueError, match="^grid too coarse: spacing 2 ueV exceeds zpl_fwhm/10 = 1 ueV$"):
            build_fs_spectrum(model, energy_grid(0.0, 500.0, 2.0))

    def test_grid_too_narrow_rejected(self):
        model = EmitterModel(0.0, 100.0, 1.0)
        with pytest.raises(ValueError, match="too narrow"):
            build_fs_spectrum(model, energy_grid(0.0, 500.0, 5.0))

    # each end's signed offset from the ZPL, also for a grid that does not
    # hold the ZPL
    @pytest.mark.parametrize("grid, spans", [
        (energy_grid(120000.0, 6000.0, 4.0), "+114000/+126000"),
        (energy_grid(0.0, 6000.0, 4.0)[:2], "-6000/-5996"),
    ], ids=["moved", "two rows"])
    def test_grid_too_narrow_message_signs_each_end(self, grid, spans):
        model = EmitterModel(0.0, 100.0, 1.0)
        message = f"grid too narrow: spans {spans} ueV around the ZPL, " \
                  "needs at least +-10*zpl_fwhm = 1000 ueV"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_fs_spectrum(model, grid)


class TestEmitterModelValidation:
    def test_dw_bounds(self):
        with pytest.raises(ValueError):
            EmitterModel(0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            EmitterModel(0.0, 10.0, 1.2)

    def test_negative_temperature(self):
        with pytest.raises(ValueError):
            EmitterModel(0.0, 10.0, 0.5, temperature_k=-1.0)


class TestDebyeWaller:
    def test_lorentzian_window_50_halfwidths(self):
        # analytic oracle: fraction of a Lorentzian inside +-50 half
        # widths is (2/pi) arctan(50) = 0.9873
        expected = 2.0 / np.pi * np.arctan(50.0)
        grid = energy_grid(0.0, 4000.0, 0.5)
        s = lorentzian_area2pi(grid, 0.0, 10.0)
        window = 50.0 * (10.0 / 2.0)
        assert debye_waller(s, window) == pytest.approx(expected, abs=2e-3)
        assert debye_waller(s, window) == pytest.approx(0.987, abs=2e-3)

    def test_no_sidebands_near_unity(self):
        grid = energy_grid(0.0, 5000.0, 0.5)
        s = lorentzian_area2pi(grid, 0.0, 4.0)
        assert debye_waller(s, 2000.0) > 0.99

    def test_window_exceeding_grid_warns(self):
        # the part of the window inside the grid holds the whole spectrum
        grid = energy_grid(0.0, 100.0, 0.5)
        s = lorentzian_area2pi(grid, 0.0, 4.0)
        with pytest.warns(UserWarning, match="exceeds the grid"):
            assert debye_waller(s, 200.0) == 1.0


class TestConvolveLorentzian:
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_width_addition(self, ratio):
        fwhm_in = 1.0
        kappa = ratio * fwhm_in
        step = min(fwhm_in, kappa) / 20.0
        grid = energy_grid(0.0, 60.0 * (fwhm_in + kappa), step)
        out = convolve_lorentzian(lorentzian_area2pi(grid, 0.0, fwhm_in), kappa)
        measured = measure_fwhm(grid, out.values)
        assert measured == pytest.approx(fwhm_in + kappa, rel=5e-3)

    def test_pointwise_lorentzian_sum(self):
        fwhm_in, kappa = 1.0, 1.0
        grid = energy_grid(0.0, 600.0, 0.05)
        out = convolve_lorentzian(lorentzian_area2pi(grid, 0.0, fwhm_in), kappa)
        reference = lorentzian(grid, 0.0, fwhm_in + kappa)
        reference *= 2.0 * np.pi / np.trapezoid(reference, grid)
        central = np.abs(grid) <= 5.0 * (fwhm_in + kappa)
        rel = np.abs(out.values[central] - reference[central]) / reference[central]
        assert rel.max() < 1e-3

    def test_delta_spike_gives_kernel(self):
        grid = energy_grid(0.0, 2000.0, 1.0)
        values = np.zeros_like(grid)
        values[grid.size // 2] = 1.0  # discrete spike of unit trapezoid area
        out = convolve_lorentzian(Spectrum(grid, values), 40.0)
        # the output is the cavity line carrying the spike's full area on
        # this grid, i.e. the on-grid unit-area Lorentzian at the spike
        reference = lorentzian(grid, 0.0, 40.0)
        reference /= np.trapezoid(reference, grid)
        central = np.abs(grid) <= 400.0
        assert np.allclose(out.values[central], reference[central], rtol=1e-3)
        assert out.area() == pytest.approx(1.0, rel=1e-9)

    def test_area_preserved(self, paper_fs_spectrum):
        out = convolve_lorentzian(paper_fs_spectrum, 86.824)
        assert out.area() == pytest.approx(paper_fs_spectrum.area(), rel=1e-4)

    def test_zpl_peak_after_cavity_filter(self):
        # width-addition rule: peak of the filtered ZPL is 4 DW/(fwhm+kappa)
        grid = energy_grid(0.0, 10000.0, 10.0)
        zpl = lorentzian(grid, 0.0, 200.0)
        zpl *= 2.0 * np.pi * 0.65 / np.trapezoid(zpl, grid)
        out = convolve_lorentzian(Spectrum(grid, zpl), 87.0)
        assert out.values.max() == pytest.approx(4.0 * 0.65 / 287.0, rel=2e-2)

    def test_kernel_is_built_once_per_grid_and_width(self, monkeypatch):
        built = []

        def counting(kernel, n):
            built.append(n)
            return fft_convolver(kernel, n)

        monkeypatch.setattr(spectra, "fft_convolver", counting)
        spectra._lorentzian_convolver.cache_clear()
        grid = energy_grid(0.0, 500.0, 1.0)
        spectra_on_grid = [lorentzian_area2pi(grid, 0.0, fwhm) for fwhm in (10.0, 30.0)]
        for kappa in (40.0, 60.0, 40.0):
            for s in spectra_on_grid:
                got = convolve_lorentzian(s, kappa)
                # the unit-discrete-area kernel over the full +-(n-1) range,
                # built and transformed on every call before it was cached
                kernel = lorentzian(np.arange(-(grid.size - 1), grid.size) * s.step, 0.0, kappa)
                kernel /= kernel.sum() * s.step
                want = np.maximum(fft_convolver(kernel, grid.size)(s.values) * s.step, 0.0)
                want *= s.area() / np.trapezoid(want, grid)
                assert np.array_equal(got.values, want)
        assert built == [grid.size, grid.size]

    def test_kappa_below_resolution_rejected(self):
        grid = energy_grid(0.0, 100.0, 1.0)
        s = lorentzian_area2pi(grid, 0.0, 10.0)
        with pytest.raises(ValueError, match="resolution"):
            convolve_lorentzian(s, 2.0)

    def test_nonpositive_kappa_rejected(self):
        grid = energy_grid(0.0, 100.0, 1.0)
        s = lorentzian_area2pi(grid, 0.0, 10.0)
        with pytest.raises(ValueError, match="positive"):
            convolve_lorentzian(s, 0.0)

    @given(kappa=st.floats(5.0, 60.0), fwhm=st.floats(1.0, 50.0))
    @settings(max_examples=25, deadline=None)
    def test_area_conservation_property(self, kappa, fwhm):
        grid = energy_grid(0.0, 3000.0, 1.0)
        s = lorentzian_area2pi(grid, 0.0, fwhm)
        out = convolve_lorentzian(s, kappa)
        assert abs(out.area() - s.area()) <= 1e-4 * s.area()


class TestSTildeMax:
    def test_trivial_unit(self):
        assert s_tilde_max(1.0, 4.0, 0.0) == pytest.approx(1.0)

    def test_paper_values(self):
        assert s_tilde_max(0.65, 200.0, 87.0) == pytest.approx(9.06e-3, rel=1e-3)

    def test_matches_numerical_convolution(self):
        grid = energy_grid(0.0, 10000.0, 10.0)
        model = EmitterModel(0.0, 200.0, 1.0, temperature_k=0.0)
        s = build_fs_spectrum(model, grid)
        out = convolve_lorentzian(s, 87.0)
        assert out.values.max() == pytest.approx(s_tilde_max(1.0, 200.0, 87.0), rel=2e-2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            s_tilde_max(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            s_tilde_max(0.5, -1.0, 1.0)


class TestAbsorptionSpectrum:
    def test_pure_zpl_identical(self):
        model = EmitterModel(0.0, 50.0, 1.0, temperature_k=0.0)
        grid = energy_grid(0.0, 3000.0, 1.0)
        s = build_fs_spectrum(model, grid)
        s_abs = absorption_spectrum(s, model)
        assert np.allclose(s_abs.values, s.values, rtol=1e-12, atol=1e-15)

    def test_mirror_about_zpl(self, paper_model, paper_fs_spectrum):
        s_abs = absorption_spectrum(paper_fs_spectrum, paper_model)
        assert np.allclose(s_abs.values, paper_fs_spectrum.values[::-1], rtol=1e-9)

    def test_red_absorption_vanishes_at_zero_temperature(self):
        model = EmitterModel(0.0, 10.0, 0.5, temperature_k=0.0)
        grid = energy_grid(0.0, 6000.0, 1.0)
        emi_wing = sideband_profile(model, grid)
        abs_wing = emi_wing[::-1]  # mirror
        red = grid < 0
        # emission red wing maps onto the absorption blue wing...
        assert np.array_equal(abs_wing[::-1][red], emi_wing[red])
        # ...and the absorption red wing carries the (vanished) Bose weight
        assert np.all(abs_wing[red & (np.abs(grid) > 0)] == 0.0)

    def test_detailed_balance_point_ratio(self):
        # at every sideband point the strong/weak ratio between emission
        # and its mirror is (n_B + 1)/n_B
        model = EmitterModel(0.0, 10.0, 0.5, temperature_k=30.0)
        grid = energy_grid(0.0, 6000.0, 1.0)
        emi = sideband_profile(model, grid)
        mirrored = emi[::-1]
        peak = emi.max()
        mask = (emi > 1e-12 * peak) & (mirrored > 1e-12 * peak) & (grid != 0)
        n_b = bose_occupation(np.abs(grid[mask]), 30.0)
        big = np.maximum(emi[mask], mirrored[mask])
        small = np.minimum(emi[mask], mirrored[mask])
        assert np.allclose(big / small, (n_b + 1.0) / n_b, rtol=1e-6)

    def test_room_temperature_ratio_at_1mev(self):
        # oracle: n_B(1 meV, 300 K) = 25.35, so abs/emi on the red side
        # is n_B/(n_B+1) = 0.962
        n_b = bose_occupation(1000.0, 300.0)
        assert n_b == pytest.approx(25.35, abs=0.01)
        model = EmitterModel(0.0, 10.0, 0.01, temperature_k=300.0,
                             sideband_exponent=1.0, sideband_cutoff_uev=1000.0)
        grid = energy_grid(0.0, 8000.0, 1.0)
        s_emi = build_fs_spectrum(model, grid)
        s_abs = absorption_spectrum(s_emi, model)
        idx = int(np.argmin(np.abs(grid + 1000.0)))
        ratio = s_abs.values[idx] / s_emi.values[idx]
        assert ratio == pytest.approx(n_b / (n_b + 1.0), abs=1e-3)
        assert ratio == pytest.approx(0.962, abs=2e-3)

    def test_emission_area_does_not_matter(self, paper_model, paper_fs_spectrum):
        # the mirrored spectrum is rescaled to area 2*pi whatever the
        # emission spectrum's area
        scaled = paper_fs_spectrum._replace(values=3.0 * paper_fs_spectrum.values)
        expected = absorption_spectrum(paper_fs_spectrum, paper_model).values
        got = absorption_spectrum(scaled, paper_model).values
        assert np.max(np.abs(got - expected)) <= 1e-15 * expected.max()


# the spectra the coupled-dynamics equations take, each of trapezoid area
# 2*pi to 1 part in 1e6
_TWO_PI_PRODUCERS = {
    "build_fs_spectrum": lambda model, s_fs: build_fs_spectrum(model, s_fs.energies),
    "absorption_spectrum": lambda model, s_fs: absorption_spectrum(s_fs, model),
    "convolve_lorentzian": lambda model, s_fs: convolve_lorentzian(s_fs, 86.824),
}


@pytest.mark.parametrize("produce", _TWO_PI_PRODUCERS.values(), ids=_TWO_PI_PRODUCERS)
def test_producers_return_area_2pi(produce, paper_model, paper_fs_spectrum):
    area = produce(paper_model, paper_fs_spectrum).area()
    assert abs(area - 2.0 * np.pi) <= 1e-6 * 2.0 * np.pi


class TestCsvRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path, paper_fs_spectrum):
        path = tmp_path / "spectrum.csv"
        spectra.write_two_column_csv(path, spectra.SPECTRUM_HEADER, paper_fs_spectrum.energies,
                                     paper_fs_spectrum.values)
        energies, values = parse_two_column_csv(path.read_text(), spectra.SPECTRUM_HEADER)
        assert np.array_equal(energies, paper_fs_spectrum.energies)
        assert np.array_equal(values, paper_fs_spectrum.values)

    def test_written_bytes(self, tmp_path):
        path = tmp_path / "two.csv"
        spectra.write_two_column_csv(path, "a,b", np.array([0.1, 2.0]), np.array([1e-300, 3]))
        assert path.read_text() == "a,b\n0.10000000000000001,1e-300\n2,3\n"

    def test_shared_grids_write_the_one_shot_bytes(self, tmp_path):
        # the x column is formatted once per grid; every file must still
        # read as if both columns were formatted together
        def one_shot(x, y):
            rows = np.column_stack((x, y)).ravel().tolist()
            return "a,b\n" + ("%.17g,%.17g\n" * (len(rows) // 2)) % tuple(rows)

        rng = np.random.default_rng(3)
        grid = energy_grid(1e6, 40.0, 0.1)
        other = np.array([-0.0, 1e-300, 1e300, 0.1, 7.0])
        cases = [(grid, rng.exponential(size=grid.size)) for _ in range(3)]
        cases += [(other, np.array([1e300, -0.0, 1e-300, 3.0, 0.0])), (grid, grid),
                  (other, other[::-1]), (grid, -grid)]
        cases += [(3 ** np.arange(40), np.arange(40)), (np.arange(5.0), np.arange(-2, 3))]
        for index, (x, y) in enumerate(cases):
            path = tmp_path / f"{index}.csv"
            spectra.write_two_column_csv(path, "a,b", x, y)
            assert path.read_text() == one_shot(x, y), index

        # a grid edited in place between two writes gets fresh text
        writable, y = np.linspace(0.0, 1.0, 5), np.ones(5)
        for _ in range(2):
            spectra.write_two_column_csv(tmp_path / "edited.csv", "a,b", writable, y)
            assert (tmp_path / "edited.csv").read_text() == one_shot(writable, y)
            writable *= 3.0

    def test_four_grids_stay_cached(self, tmp_path):
        # the commands write four grids under one config (energy, decay
        # time, saturation power, g2 delay): a second round formats no x
        grids = [energy_grid(1e6, 300.0, 0.2), np.arange(-40.0, 385.0) * 4.0,
                 np.geomspace(30.0, 3e4, 25), np.linspace(-1.5e5, 1.5e5, 30001)]
        rng = np.random.default_rng(5)
        spectra._grid_column.cache_clear()
        for round_ in range(2):
            before = spectra._grid_column.cache_info()
            for index, x in enumerate(grids):
                y = rng.exponential(size=x.size)
                path = tmp_path / f"{round_}-{index}.csv"
                spectra.write_two_column_csv(path, "a,b", x, y)
                rows = np.column_stack((x, y)).ravel().tolist()
                assert path.read_text() == "a,b\n" + ("%.17g,%.17g\n" * x.size) % tuple(rows)
            after = spectra._grid_column.cache_info()
            assert after.misses - before.misses == (len(grids) if round_ == 0 else 0)

    @pytest.mark.parametrize("rows", [spectra._KERNEL_ROWS - 1, spectra._KERNEL_ROWS,
                                      spectra._BLOCK - 1, spectra._BLOCK, spectra._BLOCK + 1,
                                      4097, 2 * spectra._BLOCK + 1])
    def test_both_row_paths_write_the_format_generators_bytes(self, tmp_path, rows):
        # below _KERNEL_ROWS Python's % formats the values, from it on the
        # kernel does, block by block
        bits = np.random.default_rng(rows).integers(0, 2 ** 64, 3 * rows, dtype=np.uint64)
        values = bits.view(np.float64)
        x, y = values[np.isfinite(values)][:2 * rows - 6].reshape(2, -1)
        x, y = np.r_[x, 0.0, -0.0, 1e16], np.r_[y, 1e-300, 100.0, 0.5]
        spectra.write_two_column_csv(tmp_path / "bits.csv", "a,b", x, y)
        old = "".join(map("{:.17g},{:.17g}\n".format, x.tolist(), y.tolist()))
        assert (tmp_path / "bits.csv").read_text() == "a,b\n" + old

    @pytest.mark.parametrize("slow", [5e-324, 1e300, 100.0, -0.0, 1e16])
    def test_slow_values_among_small_integers_keep_their_text(self, tmp_path, slow):
        # the small integers' words are narrower than the text that Python's
        # % writes over a slow value's own row, in both columns and blocks
        x, y = np.arange(1.0, spectra._BLOCK + 2), np.arange(spectra._BLOCK + 1) % 7.0
        for column in (x, y):
            column[[0, spectra._BLOCK // 2, -1]] = slow
        spectra.write_two_column_csv(tmp_path / "slow.csv", "a,b", x, y)
        old = "".join(map("{:.17g},{:.17g}\n".format, x.tolist(), y.tolist()))
        assert (tmp_path / "slow.csv").read_text() == "a,b\n" + old

    @pytest.mark.parametrize("column", ["x", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises_and_writes_no_file(self, tmp_path, column, bad):
        x, y = np.arange(3.0), np.ones(3)
        (x if column == "x" else y)[1] = bad
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="^non-finite value in data row 2$"):
            spectra.write_two_column_csv(path, "a,b", x, y)
        assert not path.exists()

    @pytest.mark.parametrize("x, y", [
        (np.arange(3.0), np.arange(4.0)),
        (np.arange(4.0), np.arange(3.0)),
        (np.ones((2, 2)), np.ones((2, 2))),
    ])
    def test_columns_must_match(self, tmp_path, x, y):
        with pytest.raises(ValueError, match="1-d of one length"):
            spectra.write_two_column_csv(tmp_path / "bad.csv", "a,b", x, y)

    @given(rows=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                   st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=2, max_size=40))
    @example(rows=[(-0.0, 5e-324), (1e308, -1e308), (2.2250738585072014e-308, -1e-310),
                   (1.7976931348623157e308, 0.0), (1e16, 123456789012345678.0)])
    @settings(max_examples=200, deadline=None)
    def test_bytes_are_the_format_generators_and_read_back_bit_exact(self, tmp_path_factory,
                                                                     rows):
        path = tmp_path_factory.getbasetemp() / "property.csv"
        x, y = (np.array(column) for column in zip(*rows))
        spectra.write_two_column_csv(path, "a,b", x, y)
        text = path.read_text()
        old = "".join(map("{:.17g},{:.17g}\n".format, x.tolist(), y.tolist()))
        assert text == "a,b\n" + old
        x_back, y_back = parse_two_column_csv(text, "a,b")
        assert x_back.tobytes() == x.tobytes() and y_back.tobytes() == y.tobytes()

    @pytest.mark.parametrize("text, message", [
        ("", "header"),
        ("energy_ueV, value\n1,2\n2,3\n", "header"),
        ("energy,value\n0,1\n1,1\n", "^expected header 'energy_ueV,value', got 'energy,value'$"),
        ("energy_ueV,value,extra\n1,2,3\n2,3,4\n", "header"),
        ("energy_ueV,value\n1,2\n", "two data rows"),
        ("energy_ueV,value\n1,2\n2,3,4\n", "two columns"),
        ("energy_ueV,value\n1,2\n\n2,3\n", "two columns"),
        ("energy_ueV,value\n1,2\n2,3\n\n", "two columns"),
        # the shape is checked line by line: four cells in all are not enough
        ("energy_ueV,value\n1,2,3\n4\n", "two columns"),
        ("energy_ueV,value\n1,2\n2,x\n", "malformed"),
        ("energy_ueV,value\n0,1\n1,x\n",
         "^malformed number in data row 2, column 'value': could not convert string to float: 'x'$"),
        ("energy_ueV,value\n1,2\n2,\n",
         "^malformed number in data row 2, column 'value': could not convert string to float: ''$"),
        ("energy_ueV,value\n,2\n2,3\n", "^malformed number in data row 1, column 'energy_ueV': "),
        # of two bad cells the first in reading order is named
        ("energy_ueV,value\n1,2\n2,y\nx,3\n", "^malformed number in data row 2, column 'value': .*'y'$"),
        # float() takes both, but neither is a CSV number
        ("energy_ueV,value\n1,2\n1_000,3\n",
         "^malformed number in data row 2, column 'energy_ueV': not a plain ASCII number: '1_000'$"),
        ("energy_ueV,value\n1,2\n2,٣\n",
         "^malformed number in data row 2, column 'value': not a plain ASCII number: '٣'$"),
        ("energy_ueV,value\n1,x\n2,1_0\n", "^malformed number in data row 1, column 'value': .*'x'$"),
        ("energy_ueV,value\n1,2\n2,nan\n", "non-finite value in data row 2"),
        ("energy_ueV,value\n-inf,2\n2,3\n", "non-finite value in data row 1"),
    ])
    def test_parse_rejects(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_two_column_csv(text, spectra.SPECTRUM_HEADER)

    @pytest.mark.parametrize("text", [
        "energy_ueV,value\r\n1,2\r\n2.5,3e-3\r\n",
        "energy_ueV,value\n 1 ,\t2\n2.5 , 3e-3 \n",
        "energy_ueV,value\n-0.0,1e-320\n1e308,-2.2250738585072014e-308",
    ])
    def test_parse_accepts(self, text):
        rows = [line.split(",") for line in text.splitlines()[1:]]
        x, y = parse_two_column_csv(text, spectra.SPECTRUM_HEADER)
        assert x.tobytes() == np.array([float(row[0]) for row in rows]).tobytes()
        assert y.tobytes() == np.array([float(row[1]) for row in rows]).tobytes()
        assert x.flags.c_contiguous and y.flags.c_contiguous
