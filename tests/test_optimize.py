"""The numpy Trust Region Reflective port against the scipy.optimize
method it repeats: `least_squares` with lower bounds must give the same
x, cost, residuals, Jacobian, status and evaluation count, bit for bit.

Every residual function here maps parameters (..., n) to residuals
(..., m) row by row, the contract `_trf_lower_bounded` states: scipy calls
it with one point at a time, the port with all the points of a
finite-difference Jacobian at once."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from cavqed import dynamics, optimize
from cavqed.optimize import _forward_jacobian, _trf_lower_bounded
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
        return dynamics._saturation_model(powers, x[..., 0, None], x[..., 1, None], mode) - counts

    return residuals, counts


def decay_problem(irf, tau_short, ratio, seed, peak=1e4, bin_ps=4.0):
    """Poisson-noisy biexponential trace and its weighted residuals, as
    fit_biexponential forms them; returns (t, counts, sigma, model)."""
    t = np.arange(-40.0, 385.0) * bin_ps
    clean = dynamics.simulate_decay(HBAR_UEV_PS / 256.0, ratio, (2.0, 1.0), tau_short, irf, t)
    rng = np.random.default_rng(seed)
    c = rng.poisson(clean.counts * (peak / clean.counts.max())).astype(float)
    model = dynamics._decay_model(t, dynamics._irf_convolver(irf, bin_ps, t.size))
    return t, c, np.sqrt(np.maximum(c, 1.0)), model


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
        t, c, sigma, model = decay_problem(irf, tau_short, ratio, seed)

        def residuals(x):
            return (model(*dynamics._columns(x)) - c) / sigma

        x0 = np.array(dynamics._initial_biexp_guess(t, c, model)) * [start, 1.0, 1.0, start]
        same_as_scipy(residuals, x0, [0.4, 0.4, 0.0, 0.0],
                      ftol=1e-10, xtol=1e-10, max_nfev=2000)

    @given(irf=st.sampled_from([0.0, 32.0]), seed=st.integers(0, 2**32 - 1),
           start=st.floats(0.3, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_monoexponential_collapse(self, irf, seed, start):
        t, c, sigma, model = decay_problem(irf, 200.0, 1.0, seed)

        def residuals(x):
            return (model(x[..., 0, None], x[..., 0, None], 0.0, x[..., 1, None]) - c) / sigma

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
            # A x as a sum of products, whose rounding does not depend on
            # how many points are evaluated at once (a BLAS product's does)
            Ax = (x[..., None, :] * A).sum(axis=-1)
            return Ax - b + curvature * np.sin(x).sum(axis=-1, keepdims=True)

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
            cube = np.where(x[..., 0] > root * (1.0 + margin), np.nan, x[..., 0] ** 3 - root ** 3)
            f = np.stack([cube, x[..., 1] - 10.0 * root], axis=-1)
            seen.append(np.all(np.isfinite(f)))
            return f

        same_as_scipy(residuals, [start * root, 10.0 * root], [0.0, 0.0])
        assert not all(seen)

    def _decay(self):
        t = np.linspace(0.0, 5.0, 30)
        y = 3.0 * np.exp(-t / 1.5) + 0.1 * np.sin(7.0 * t)
        return lambda x: x[..., 0, None] * np.exp(-t / x[..., 1, None]) - y

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
            wall = np.where(x[..., 0] <= 2.0, x[..., 0] - 8.0, np.nan)
            return np.stack([wall, x[..., 1] - 1.0], axis=-1)

        for solve in (lambda: least_squares(residuals, [0.0, 0.5], bounds=([0.0, 0.0], np.inf)),
                      lambda: _trf_lower_bounded(residuals, [0.0, 0.5], [0.0, 0.0])):
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                solve()


def jacobian_column_by_column(fun, x, f, lb):
    """_forward_jacobian as a loop over the parameters, one residual call
    per stepped point, as scipy's approx_derivative forms it: the
    reference the batched Jacobian must equal bit for bit."""
    h = np.finfo(float).eps**0.5 * ((x >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x))
    h[x + h < lb] *= -1
    J_transposed = np.empty((x.size, f.size))
    for i in range(x.size):
        x1 = x.copy()
        x1[i] = x[i] + h[i]
        J_transposed[i] = (fun(x1) - f) / ((x[i] + h[i]) - x[i])
    return J_transposed.T


def signed_zero_problem():
    # atan2(x0, -1) is +pi at x0 = +0.0 and -pi at x0 = -0.0, so a stepped
    # point that lost the sign of an unstepped zero changes its row by 2 pi
    def residuals(x):
        return np.stack([np.arctan2(x[..., 0], -1.0), x[..., 1] ** 2 - 2.0,
                         x[..., 0] * x[..., 1] + np.sin(x[..., 2])], axis=-1)

    return residuals, [np.array([-0.0, 1.5, -0.0])], np.array([-1.0, 0.0, -2.0])


def jacobian_problem(name):
    """(residuals, points, lb): a problem of the scipy comparisons above
    and the points to take its Jacobian at."""
    if name.startswith("decay"):
        t, c, sigma, model = decay_problem(0.0 if name == "decay-no-irf" else 32.0, 23.0, 1.3, 5)
        x = np.array(dynamics._initial_biexp_guess(t, c, model))

        def residuals(x):
            return (model(*dynamics._columns(x)) - c) / sigma

        return residuals, [x, x * [0.7, 1.2, 0.5, 1.5]], np.array([0.4, 0.4, 0.0, 0.0])
    if name == "monoexponential":
        t, c, sigma, model = decay_problem(32.0, 200.0, 1.0, 2)

        def residuals(x):
            return (model(x[..., 0, None], x[..., 0, None], 0.0, x[..., 1, None]) - c) / sigma

        return residuals, [np.array([180.0, c.max()])], np.array([1e-6, 0.0])
    if name.startswith("saturation"):
        residuals, _ = saturation_problem(name.split("-")[1], 1e3, 3.0, 0.05, 7)
        # the second point sits on the lower bound
        return residuals, [np.array([1.2e3, 2.0]), np.array([0.0, 1e-9])], np.zeros(2)
    if name == "active-bounds":
        rng = np.random.default_rng(4)
        A = rng.standard_normal((7, 4))

        def residuals(x):
            return (x[..., None, :] * A).sum(axis=-1) + np.sin(x).sum(axis=-1, keepdims=True)

        # a negative x steps downward, and at its bound that step would
        # cross it, so it is turned around
        lb = rng.uniform(-2.0, -0.5, 4)
        return residuals, [lb + [0.0, 1e-12, 0.5, 3.0], lb + rng.uniform(0.0, 4.0, 4)], lb
    return signed_zero_problem()


class TestBatchedJacobian:
    @pytest.mark.parametrize("problem", ["decay", "decay-no-irf", "monoexponential",
                                         "saturation-cw", "saturation-pulsed",
                                         "active-bounds", "signed-zero"])
    def test_equals_the_column_loop_bit_for_bit(self, problem):
        fun, points, lb = jacobian_problem(problem)
        for x in points:
            f = fun(x)
            got = _forward_jacobian(fun, x, f, lb)
            want = jacobian_column_by_column(fun, x, f, lb)
            assert got.tobytes() == want.tobytes()
            # the transpose of a C array, as scipy returns it
            assert got.T.flags.c_contiguous

    def test_a_lost_signed_zero_would_show(self):
        # the signed-zero case above can tell x + diag(h) from the loop
        fun, (x,), lb = signed_zero_problem()
        f = fun(x)
        h = np.finfo(float).eps**0.5 * np.maximum(1.0, np.abs(x))
        stepped = fun(x + np.diag(h))
        assert not np.array_equal((stepped - f) / h[:, None],
                                  jacobian_column_by_column(fun, x, f, lb).T)

    @pytest.mark.parametrize("fit", ["biexponential", "saturation"])
    def test_one_residual_call_per_jacobian(self, monkeypatch, fit):
        shapes, n_jacobians, nfev = [], [0], [0]
        real_trf, real_jacobian = optimize._trf_lower_bounded, optimize._forward_jacobian

        def counting_trf(fun, *args, **kwargs):
            def recorded(x):
                shapes.append(x.shape)
                return fun(x)

            result = real_trf(recorded, *args, **kwargs)
            nfev[0] += result.nfev
            return result

        def counting_jacobian(*args):
            n_jacobians[0] += 1
            return real_jacobian(*args)

        monkeypatch.setattr(dynamics, "_trf_lower_bounded", counting_trf)
        monkeypatch.setattr(optimize, "_forward_jacobian", counting_jacobian)
        if fit == "biexponential":
            t, c, _, _ = decay_problem(32.0, 23.0, 1.3, 5)
            dynamics.fit_biexponential(dynamics.DecayTrace(t, c, 32.0))
        else:
            _, counts = saturation_problem("cw", 1e3, 3.0, 0.05, 7)
            dynamics.fit_saturation(np.linspace(0.0, 24.0, 12), counts, "cw")
        n = shapes[0][0]
        # one (n, n) call per Jacobian, one (n,) call per counted evaluation
        assert n_jacobians[0] > 0
        assert shapes.count((n, n)) == n_jacobians[0]
        assert shapes.count((n,)) == nfev[0]
        assert len(shapes) == n_jacobians[0] + nfev[0]
