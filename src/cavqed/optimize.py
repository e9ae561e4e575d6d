"""Numpy ports of the two scipy.optimize methods the fits use, so that no
`pl` command imports scipy (about half a second of a cold start).

Each repeats scipy's arithmetic in the same order, so its iterates and
results are scipy's own bit for bit:

- `_brent_bounded` is `minimize_scalar(method="bounded")`;
- `_trf_lower_bounded` is `least_squares(method="trf")` as the fits call
  it: exact (SVD) trust-region solves, a 2-point finite-difference
  Jacobian, unit `x_scale`, linear loss, finite lower bounds and no upper
  bounds.
"""

import math

import numpy as np
from numpy.linalg import norm

from .units import _record

_EPS = np.finfo(float).eps
# least_squares' default gradient tolerance
_GTOL = 1e-8


def _sign(v):
    """sign(v), taking 0 to +1 (nan stays nan)."""
    return float(np.sign(v)) + (v == 0)


def _brent_bounded(f, lo, hi, xatol, maxiter):
    """Minimize the scalar function f on [lo, hi] by Brent's method
    (the fminbound of Forsythe, Malcolm & Moler, 1977): golden-section
    steps, parabolic where acceptable.

    The arithmetic is that of scipy.optimize.minimize_scalar with
    method="bounded", in the same order, so the iterates are its own bit
    for bit.  Returns (x, f(x), evaluations, converged); converged is
    False after `maxiter` evaluations or on a nan.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            return xf, fx, num, False

    return xf, fx, num, not (math.isnan(xf) or math.isnan(fx) or math.isnan(fu))


class LsqResult(_record("LsqResult", "x cost fun jac status nfev")):
    """The fields of scipy's OptimizeResult that the fits read."""

    __slots__ = ()


def _trf_lower_bounded(fun, x0, lb, ftol=1e-8, xtol=1e-8, max_nfev=None):
    """Minimize 0.5 * |fun(x)|**2 subject to x >= lb by the Trust Region
    Reflective method of Branch, Coleman & Li, SIAM J. Sci. Comput. 21, 1
    (1999).

    `fun` maps a float array of shape (..., n) to one of shape (..., m),
    each row of parameters to its row of residuals: it gets the starting
    and trial points as (n,) arrays and the n stepped points of each
    finite-difference Jacobian as one (n, n) array.  The arithmetic is
    that of scipy.optimize.least_squares(fun, x0, bounds=(lb, inf),
    ftol=ftol, xtol=xtol, max_nfev=max_nfev), in the same order; `status`
    is scipy's: 0 when `max_nfev` evaluations are spent, 1 to 4 for the
    gradient, cost, step and cost-and-step tests.
    """
    x0 = np.atleast_1d(x0).astype(float)
    lb = np.asarray(lb, dtype=float)
    if not np.all(x0 >= lb):
        raise ValueError("Initial guess is outside of provided bounds")
    x = _strictly_feasible(x0, lb, rstep=1e-10)
    f = fun(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("Residuals are not finite in the initial point.")
    J = _forward_jacobian(fun, x, f, lb)
    nfev = 1
    m, n = J.shape
    if max_nfev is None:
        max_nfev = n * 100

    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    v, dv = _scaling_vector(x, g, lb)
    Delta = norm(x / v**0.5)
    if Delta == 0:
        Delta = 1.0

    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0  # Levenberg-Marquardt parameter
    status = None
    while True:
        v, dv = _scaling_vector(x, g, lb)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < _GTOL:
            status = 1
        if status is not None or nfev == max_nfev:
            break

        # "hat" variables of the Coleman-Li scaling
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        if not np.all(np.isfinite(J_augmented)):
            raise ValueError("array must not contain infs or NaNs")
        U, s, Vt = np.linalg.svd(J_augmented, full_matrices=False)
        # LAPACK's Fortran order, as scipy.linalg.svd returns them, so the
        # products below take scipy's BLAS path and round the same way
        V = np.asfortranarray(Vt).T
        uf = np.asfortranarray(U).T.dot(f_augmented)

        # step-back ratio from the bounds
        theta = max(0.995, 1 - g_norm)
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, theta)

            x_new = _strictly_feasible(x + step, lb, rstep=0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction,
                step_h_norm, step_h_norm > 0.95 * Delta)
            status = _check_termination(actual_reduction, cost, norm(step), norm(x),
                                        ratio, ftol, xtol)
            if status is not None:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = _forward_jacobian(fun, x, f, lb)
            g = J.T.dot(f)

    return LsqResult(x, cost, f, J, 0 if status is None else status, nfev)


def _forward_jacobian(fun, x, f, lb):
    """scipy's approx_derivative(method="2-point") at x, where f = fun(x):
    a relative step of sqrt(eps), taken backward where forward would cross
    lb.  The n stepped points go to `fun` as one (n, n) array, one call per
    Jacobian; row by row the arithmetic is scipy's.  Returned as the
    transpose of a C array, as scipy does."""
    h = _EPS**0.5 * ((x >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x))
    h[x + h < lb] *= -1
    # row i is x with entry i stepped: copying x keeps every other entry's
    # bits (x + diag(h) would turn -0.0 into +0.0)
    x1 = np.empty((x.size, x.size))
    x1[:] = x
    x1.flat[::x.size + 1] = x + h
    J_transposed = (fun(x1) - f) / ((x + h) - x)[:, None]
    return J_transposed.T


def _strictly_feasible(x, lb, rstep):
    """Move the entries of x at (or within rstep of) their lower bound
    strictly inside: by rstep * max(1, |lb|), or to the next float up for
    rstep = 0."""
    x_new = x.copy()
    if rstep == 0:
        lower = x <= lb
        x_new[lower] = np.nextafter(lb[lower], np.inf)
    else:
        lower = x - lb <= rstep * np.maximum(1, np.abs(lb))
        x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
    return x_new


def _scaling_vector(x, g, lb):
    """Coleman-Li scaling v and its derivative dv: the distance to the
    lower bound where the gradient points at it, else 1."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = g > 0
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv


def _step_size_to_bound(x, s, lb):
    """Largest t with x + t s feasible, and which bounds that t hits
    (sign of s where hit, else 0).  Only a component moving down (s < 0)
    can reach its bound; the division overflows to inf for a tiny s."""
    down = s < 0
    steps = np.full_like(x, np.inf)
    with np.errstate(over="ignore"):
        steps[down] = (lb - x)[down] / s[down]
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _intersect_trust_region(x, s, Delta):
    """The two t with |x + t s| = Delta, smaller first."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b * b - a * c)
    # avoids the loss of significance of the textbook formula
    q = -(b + math.copysign(d, b))
    t1 = q / a
    t2 = c / q
    return (t1, t2) if t1 < t2 else (t2, t1)


def _solve_lsq_trust_region(n, m, uf, s, V, Delta, initial_alpha):
    """Minimize |J p + f| subject to |p| <= Delta given the SVD of J
    (More, 1978): the Gauss-Newton step if it fits, else a few Newton
    iterations on the Levenberg-Marquardt parameter alpha.  Returns
    (p, alpha)."""
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf**2 / denom**3) / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0

    alpha_upper = norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and initial_alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    else:
        alpha = initial_alpha

    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break

    p = -V.dot(suf / (s**2 + alpha))
    # land on the boundary exactly, so that p never leaves the region
    p *= Delta / norm(p)
    return p, alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, theta):
    """The best of three candidate steps: the trust-region step, its
    reflection at the first bound it hits, and the (bound-limited)
    Cauchy step; both p and p_h are changed in place."""
    if np.all(x + p >= lb):
        return p, p_h, -_evaluate_quadratic(J_h, g_h, p_h, diag_h)

    p_stride, hits = _step_size_to_bound(x, p, lb)
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    # restrict the trust-region step to end on the bound
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    # the reflected direction leaves either the feasible region or the
    # trust region first
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # step back from the bound to stay strictly interior
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lb)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr
    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


def _build_quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of f(t) = a t**2 + b t (+ c) = q(s0 + t s) for the
    model q(p) = 0.5 |J p|**2 + 0.5 p.diag.p + g.p."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    """Minimum of a t**2 + b t + c on [lb, ub]: (t, value)."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _evaluate_quadratic(J, g, s, diag):
    """0.5 |J s|**2 + 0.5 s.diag.s + g.s"""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def _update_tr_radius(Delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    """Shrink the radius to a quarter of the step after a poor step, double
    it after a good one that reached the boundary.  Returns (Delta, ratio)."""
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _check_termination(dF, F, dx_norm, x_norm, ratio, ftol, xtol):
    """scipy's status for the cost (2), step (3) or both (4) tests, else None."""
    ftol_satisfied = dF < ftol * F and ratio > 0.25
    xtol_satisfied = dx_norm < xtol * (xtol + x_norm)
    if ftol_satisfied and xtol_satisfied:
        return 4
    elif ftol_satisfied:
        return 2
    elif xtol_satisfied:
        return 3
    return None
