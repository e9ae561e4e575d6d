"""The numpy Trust Region Reflective port against the scipy.optimize
method it repeats: `least_squares` with lower bounds must give the same
x, cost, residuals, Jacobian, status and evaluation count, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from cavqed import dynamics
from cavqed.optimize import _trf_lower_bounded
from cavqed.units import HBAR_UEV_PS


def same_as_scipy(fun, x0, lb, **options):
    ref = least_squares(fun, x0, bounds=(lb, np.inf), **options)
    got = _trf_lower_bounded(fun, x0, lb, **options)
    assert np.array_equal(got.x, ref.x)
    assert got.cost == ref.cost
    assert np.array_equal(got.fun, ref.fun)
    assert np.array_equal(got.jac, ref.jac)
    assert (got.status, got.nfev) == (ref.status, ref.nfev)
    return got


def saturation_problem(mode, i_sat, p_sat, noise, seed, n=12):
    powers = np.linspace(0.0, 8.0 * p_sat, n)
    rng = np.random.default_rng(seed)
    counts = dynamics.saturation_curve(powers, i_sat, p_sat, mode)
    counts = counts * (1.0 + noise * rng.standard_normal(n))

    def residuals(x):
        return dynamics.saturation_curve(powers, x[0], x[1], mode) - counts

    return residuals, counts


def decay_problem(irf, tau_short, ratio, seed, peak=1e4, bin_ps=4.0):
    """Poisson-noisy biexponential trace and its weighted residuals, as
    fit_biexponential forms them; returns (t, counts, sigma, convolve)."""
    t = np.arange(-40.0, 385.0) * bin_ps
    clean = dynamics.simulate_decay(HBAR_UEV_PS / 256.0, ratio, (2.0, 1.0), tau_short, irf, t)
    rng = np.random.default_rng(seed)
    c = rng.poisson(clean.counts * (peak / clean.counts.max())).astype(float)
    return t, c, np.sqrt(np.maximum(c, 1.0)), dynamics._irf_convolver(irf, bin_ps, t.size)


class TestSameAsLeastSquares:
    @given(mode=st.sampled_from(["cw", "pulsed"]), i_sat=st.floats(1e2, 1e7),
           p_sat=st.floats(1e-2, 1e3), noise=st.floats(0.0, 0.2),
           seed=st.integers(0, 2**32 - 1), i_start=st.floats(0.1, 10.0),
           p_start=st.floats(1e-3, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_saturation_curves(self, mode, i_sat, p_sat, noise, seed, i_start, p_start):
        residuals, counts = saturation_problem(mode, i_sat, p_sat, noise, seed)
        same_as_scipy(residuals, [i_start * i_sat, p_start * p_sat], [0.0, 0.0])

    @given(irf=st.sampled_from([0.0, 32.0, 80.0]), tau_short=st.floats(8.0, 60.0),
           ratio=st.floats(1.0, 2.0), seed=st.integers(0, 2**32 - 1),
           start=st.floats(0.5, 2.0))
    @settings(max_examples=15, deadline=None)
    def test_biexponential_traces(self, irf, tau_short, ratio, seed, start):
        t, c, sigma, convolve = decay_problem(irf, tau_short, ratio, seed)

        def residuals(x):
            return (dynamics._biexp_model(t, *x, convolve) - c) / sigma

        x0 = np.array(dynamics._initial_biexp_guess(t, c, convolve)) * [start, 1.0, 1.0, start]
        same_as_scipy(residuals, x0, [0.4, 0.4, 0.0, 0.0],
                      ftol=1e-10, xtol=1e-10, max_nfev=2000)

    @given(irf=st.sampled_from([0.0, 32.0]), seed=st.integers(0, 2**32 - 1),
           start=st.floats(0.3, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_monoexponential_collapse(self, irf, seed, start):
        t, c, sigma, convolve = decay_problem(irf, 200.0, 1.0, seed)

        def residuals(x):
            return (dynamics._biexp_model(t, x[0], x[0], 0.0, x[1], convolve) - c) / sigma

        same_as_scipy(residuals, [start * 200.0, c.max()], [1e-6, 0.0])

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           curvature=st.floats(0.0, 2.0), shift=st.floats(-3.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_active_bounds(self, seed, n, curvature, shift):
        # mildly nonlinear residuals whose unconstrained optimum lies
        # partly below the bounds, so steps hit them and reflect
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n + 3, n))
        b = rng.standard_normal(n + 3) * 3.0
        lb = rng.uniform(-2.0, 1.0, n) + shift

        def residuals(x):
            return A @ x - b + curvature * np.sin(x).sum()

        x0 = lb + rng.uniform(0.0, 4.0, n) * (rng.uniform(size=n) < 0.7)
        same_as_scipy(residuals, x0, lb)

    @pytest.mark.parametrize("x0", [[0.0, 3.0], [1e3, 0.0], [0.0, 0.0], [1e-11, 5.0]])
    def test_start_on_the_lower_bound(self, x0):
        residuals, _ = saturation_problem("cw", 1e3, 3.0, 0.05, 7)
        got = same_as_scipy(residuals, x0, [0.0, 0.0])
        assert np.all(got.x > 0)

    def test_start_at_the_origin(self):
        # a zero start gives a zero initial radius, which scipy resets to 1
        same_as_scipy(lambda x: x - np.array([1.0, -0.5]), [0.0, 0.0], [-1.0, -1.0])

    @given(max_nfev=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_evaluation_budget(self, max_nfev, seed):
        residuals, _ = saturation_problem("pulsed", 5e4, 2.0, 0.1, seed)
        got = same_as_scipy(residuals, [1e3, 40.0], [0.0, 0.0], max_nfev=max_nfev)
        assert got.nfev <= max_nfev
        assert got.status == 0 or got.nfev < max_nfev

    @given(root=st.floats(1.0, 5.0), margin=st.floats(0.1, 0.5), start=st.floats(0.05, 0.4))
    @settings(max_examples=40, deadline=None)
    def test_non_finite_residuals_shrink_the_region(self, root, margin, start):
        # residuals are nan beyond x0 = root * (1 + margin), where the
        # first Gauss-Newton step towards the root lands (x1 starts at its
        # far optimum, which makes the initial region wide), so the radius
        # must shrink; the finite-difference steps at the root never cross it
        seen = []

        def residuals(x):
            f = np.array([x[0] ** 3 - root ** 3, x[1] - 10.0 * root])
            if x[0] > root * (1.0 + margin):
                f[0] = np.nan
            seen.append(np.all(np.isfinite(f)))
            return f

        same_as_scipy(residuals, [start * root, 10.0 * root], [0.0, 0.0])
        assert not all(seen)

    def _decay(self):
        t = np.linspace(0.0, 5.0, 30)
        y = 3.0 * np.exp(-t / 1.5) + 0.1 * np.sin(7.0 * t)
        return lambda x: x[0] * np.exp(-t / x[1]) - y

    @pytest.mark.parametrize("status, options", [
        (0, {"max_nfev": 3}),
        (1, {}),
        (2, {"ftol": 1e-3, "xtol": 1e-15}),
        (3, {"ftol": 1e-15, "xtol": 1e-3}),
        (4, {"ftol": 1e-2, "xtol": 1e-2}),
    ])
    def test_every_termination_status(self, status, options):
        if status == 1:
            # linear residuals: the first step lands on the zero-gradient optimum
            fun = lambda x: x - np.array([0.5, 0.25])  # noqa: E731
        else:
            fun = self._decay()
        got = same_as_scipy(fun, [1.0, 1.0], [0.0, 0.1], **options)
        assert got.status == status

    def test_rejects_what_scipy_rejects(self):
        fun = self._decay()
        with pytest.raises(ValueError, match="outside of provided bounds"):
            _trf_lower_bounded(fun, [1.0, 0.0], [0.0, 0.1])
        with pytest.raises(ValueError, match="not finite in the initial point"):
            _trf_lower_bounded(lambda x: x * np.inf, [1.0, 1.0], [0.0, 0.0])

    def test_non_finite_jacobian_raises_like_scipy(self):
        # the optimum sits on a wall of nan residuals, so a finite-difference
        # step crosses it and scipy's SVD refuses the Jacobian
        def residuals(x):
            return np.array([x[0] - 8.0 if x[0] <= 2.0 else np.nan, x[1] - 1.0])

        for solve in (lambda: least_squares(residuals, [0.0, 0.5], bounds=([0.0, 0.0], np.inf)),
                      lambda: _trf_lower_bounded(residuals, [0.0, 0.5], [0.0, 0.0])):
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                solve()
