"""The free isotropic alpha-stable heat kernel and its weighted integrals.

Evaluation routes for the unit-time radial density:

* alpha = 1: Cauchy closed form.
* small radius: convergent power series in r^2 (alpha >= 1), or its
  asymptotic truncation (alpha < 1);
* large radius: the tail series in powers of r^{-alpha} (convergent for
  alpha < 1, asymptotic otherwise);
* fallback: Fourier-Hankel inversion of the radial symbol, the oscillatory
  integral split at (approximate) Bessel zeros.

All other times are reduced to t = 1 by exact scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gamma as _gamma
from math import exp, inf, isfinite, lgamma, log, pi, sin
from sys import float_info

import numpy as np
from scipy.special import jv

from .errors import DomainError, QuadratureError
from .params import _check_alpha
from .quadrature import log_panel_nodes, panel_nodes, sphere_angle_rule

_ALPHA_ONE_TOL = 1e-12
_SERIES_TOL = 1e-10     # relative truncation tolerance of the p_1 series
_ANGULAR_NODES = 32     # angular nodes of the spherical mean
_BLOCK_ROWS = 1024      # rows of angular nodes per kernel evaluation (0.25 MB)
_LOG_TINY = log(float_info.min)   # log of the smallest normal float
_LOG_HUGE = log(float_info.max)   # log of the largest float


class Method(Enum):
    CLOSED_FORM = "closed_form"
    FOURIER_INVERSION = "fourier_inversion"
    FIXED_POINT = "fixed_point"


@dataclass(frozen=True)
class KernelValue:
    value: float
    abs_error: float
    method: Method


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    return 2.0 * pi ** (d / 2.0) / _gamma(d / 2.0)


def is_cauchy(alpha: float) -> bool:
    return abs(alpha - 1.0) <= _ALPHA_ONE_TOL


def cauchy_unit_density(r, d: int):
    """p_1 at radius r for alpha = 1 (multivariate Cauchy)."""
    c = _gamma((d + 1) / 2.0) / pi ** ((d + 1) / 2.0)
    return c / (1.0 + np.asarray(r, dtype=float) ** 2) ** ((d + 1) / 2.0)


def levy_constant(d: int, alpha: float) -> float:
    """Coefficient A with Levy density A |y|^{-d-alpha}."""
    if not (0.0 < alpha < 2.0):
        raise DomainError(f"alpha must lie in (0, 2), got {alpha}")
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * _gamma((d + alpha) / 2.0)
        / (pi ** (d / 2.0) * _gamma(1.0 - alpha / 2.0))
    )


# ---------------------------------------------------------------------------
# Unit-time density p_1(r)


def _small_r_series(r: float, d: int, alpha: float, tol: float):
    """Power series in r^2; convergent for alpha >= 1, asymptotic for alpha < 1.

    Returns (value, error) or None when the series fails to settle.
    """
    pref = 2.0 / (4.0 * pi) ** (d / 2.0)
    x = (r / 2.0) ** 2
    if x == 0.0:
        # only the j = 0 term is nonzero: exact up to rounding
        val = pref * np.exp(lgamma(d / alpha) - lgamma(d / 2.0)) / alpha
        return val, 1e-16 * val
    total = 0.0
    prev_term = np.inf
    max_term = 0.0
    for j in range(0, 400):
        lt = lgamma((d + 2 * j) / alpha) - lgamma(j + 1) - lgamma(d / 2.0 + j)
        if j > 0:
            lt += j * log(x)
        term = ((-1.0) ** j) * np.exp(lt) / alpha
        at = abs(term)
        if j > 2 and at > prev_term:
            # terms started to grow: asymptotic regime, truncate at smallest
            if prev_term < tol * abs(total) and total > 0:
                return pref * total, pref * prev_term
            return None
        total += term
        max_term = max(max_term, at)
        if j > 1 and at < tol * abs(total):
            if total <= 0.0 or max_term > 1e5 * total:
                return None  # catastrophic cancellation
            return pref * total, pref * max(at, 1e-16 * max_term)
        prev_term = at
    return None


def _tail_series(r: float, d: int, alpha: float, tol: float):
    """Series in r^{-alpha}; convergent for alpha < 1, asymptotic otherwise.

    The error is the magnitude of the term at which the sum stops, floored
    at the sum's rounding: far out in the tail that term underflows to 0."""
    if r <= 0.0:
        return None
    total = 0.0
    prev_mag = np.inf  # envelope magnitude ignoring vanishing sine factors
    logr = log(r)
    for k in range(1, 300):
        s = sin(pi * alpha * k / 2.0)
        lt = (
            alpha * k * log(2.0)
            + lgamma((d + alpha * k) / 2.0)
            + lgamma(1.0 + alpha * k / 2.0)
            - lgamma(k + 1)
            - (d + alpha * k) * logr
        )
        if lt > 700.0:
            return None
        mag = np.exp(lt) / pi
        term = ((-1.0) ** (k + 1)) * mag * s
        if k > 2 and mag > prev_mag:
            if prev_mag < tol * abs(total) and total > 0:
                err = max(prev_mag, 1e-16 * total)
                return total * pi ** (-d / 2.0), err * pi ** (-d / 2.0)
            return None
        total += term
        if k > 1 and mag < tol * abs(total):
            if total <= 0.0:
                return None
            err = max(mag, 1e-16 * total)
            return total * pi ** (-d / 2.0), err * pi ** (-d / 2.0)
        prev_mag = mag
    return None


def _hankel_quadrature(r: float, d: int, alpha: float):
    """Direct Fourier-Hankel inversion of exp(-|xi|^alpha) at radius r."""
    nu = d / 2.0 - 1.0
    s_max = (42.0) ** (1.0 / alpha)  # exp(-s^alpha) < 1e-18 beyond this
    # panel boundaries at approximate Bessel zeros (McMahon)
    first = max(1.0, nu)
    edges = [0.0]
    k = 1
    while True:
        z = (k + nu / 2.0 - 0.25) * pi
        if z < first:
            k += 1
            continue
        edge = z / r
        edges.append(edge)
        if edge > s_max:
            break
        k += 1
        if k > 40000:
            raise QuadratureError(
                f"too many oscillations in Hankel inversion at r={r}, alpha={alpha}"
            )
    total = 0.0
    npts = 24
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        hi = min(hi, s_max * 1.05)
        if i == 0 and hi / max(lo, 1e-12) > 20.0:
            # wide first segment: resolve with geometric panels
            x, w = log_panel_nodes(1e-8 * hi, hi, n_per_panel=npts, per_decade=3)
        else:
            x, w = panel_nodes(lo, hi, npts)
        f = np.exp(-(x ** alpha)) * x ** (d / 2.0) * jv(nu, r * x)
        total += float(np.sum(w * f))
        if lo > s_max:
            break
    val = (2.0 * pi) ** (-d / 2.0) * r ** (1.0 - d / 2.0) * total
    return val, max(abs(val) * 1e-10, 1e-18)


def _in_far_tail(r: float, d: int, alpha: float) -> bool:
    """Whether the leading tail term A r^{-d-alpha} of p_1 is below the
    smallest normal float.  There every term of the tail series underflows
    or is subnormal; the leading term alone is p_1 up to a relative error of
    order r^{-alpha}, at most exp(-708 alpha / (d + alpha)) (1e-132 at
    d = 2, alpha = 1.5)."""
    return r > 0.0 and log(levy_constant(d, alpha)) - (d + alpha) * log(r) < _LOG_TINY


def unit_density(r: float, d: int, alpha: float):
    """Unit-time density p_1 at radius r, with an error estimate.

    Returns (value, abs_error).
    """
    _check_alpha(d, alpha)
    r = float(abs(r))
    if is_cauchy(alpha):
        return float(cauchy_unit_density(r, d)), 1e-16
    if _in_far_tail(r, d, alpha):
        val = levy_constant(d, alpha) * r ** (-d - alpha)
        return val, val * max(r ** -alpha, 1e-16)
    res = _tail_series(r, d, alpha, _SERIES_TOL)
    if res is not None:
        return res
    res = _small_r_series(r, d, alpha, _SERIES_TOL)
    if res is not None:
        return res
    return _hankel_quadrature(r, d, alpha)


class UniformCubic:
    """A cubic spline with breakpoints on a uniform grid, evaluated with the
    same bits as scipy's PPoly call but in numpy array operations only.

    PPoly's evaluation holds the GIL; these operations release it, so
    threads that evaluate the spline run in parallel.  The interval of a
    point v is found by arithmetic and then corrected by one comparison on
    each side, which gives PPoly's interval: b[k] <= v < b[k + 1] for the
    breakpoints b, clamped to the first and the last interval.  The cubic
    in v - b[k] is summed in PPoly's order.
    """

    def __init__(self, spline):
        x = np.ascontiguousarray(spline.x)
        self._x, self._x0 = x, x[0]
        self._last = len(x) - 2                      # the last interval
        self._inv_h = (len(x) - 1) / (x[-1] - x[0])
        # the arithmetic index may be off by one at most
        off = np.abs(x - (x[0] + np.arange(len(x)) / self._inv_h)) * self._inv_h
        if not np.max(off) < 0.5:
            raise ValueError("the breakpoints are not uniform")
        self._c = tuple(np.ascontiguousarray(c) for c in spline.c)

    def __call__(self, xv):
        xv = np.asarray(xv, dtype=float)
        v = xv.reshape(-1)
        x = self._x
        # fmax / fmin map NaN to 0, so the cast sees finite values only
        s = (v - self._x0) * self._inv_h
        k = np.fmin(np.fmax(s, 0.0, out=s), self._last, out=s).astype(np.intp)
        k -= v < x.take(k)
        k += v >= x.take(k + 1)
        np.clip(k, 0, self._last, out=k)
        np.subtract(v, x.take(k), out=s)
        # c3 + c2 s + c1 s^2 + c0 s^3, in place and in this order
        c0, c1, c2, c3 = self._c
        out = c2.take(k)
        out *= s
        out += c3.take(k)
        z = s * s
        term = c1.take(k)
        term *= z
        out += term
        z *= s
        c0.take(k, out=term)
        term *= z
        out += term
        return out.reshape(xv.shape)


@lru_cache(maxsize=32)
def _unit_density_interpolant(d: int, alpha: float):
    """Log-log Chebyshev-free interpolant of p_1 on a dense radial grid.

    Power-law continuation outside the grid: p_1(0+) plateau on the left,
    the exact first tail term on the right.  That term alone has a relative
    error of order r^{-alpha} beyond r = 1e4: 6.8e-3 at r = 2e4 for
    alpha = 0.5, 7.5e-4 for alpha = 0.7 and 1.5e-6 for alpha = 1.5.
    """
    from scipy.interpolate import CubicSpline

    r_lo, r_hi = 1e-4, 1e4
    grid = np.geomspace(r_lo, r_hi, 1600)
    vals = np.array([unit_density(float(r), d, alpha)[0] for r in grid])
    spline = UniformCubic(CubicSpline(np.log(grid), np.log(vals)))
    p0 = unit_density(0.0, d, alpha)[0]
    a_tail = levy_constant(d, alpha)

    def evaluate(r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        small = r < r_lo
        big = r > r_hi
        mid = ~(small | big)
        out[small] = p0
        out[big] = a_tail * r[big] ** (-d - alpha)
        out[mid] = np.exp(spline(np.log(r[mid])))
        return out

    return evaluate


def unit_density_grid(r, d: int, alpha: float, exact: bool = False):
    """Vectorized p_1 over an array of radii.

    With exact=False and alpha != 1 a cached log-log interpolant is used:
    relative accuracy about 1e-8 up to r = 1e4, and of order r^{-alpha} beyond,
    where only the leading tail term is kept (see _unit_density_interpolant).
    exact=True evaluates every point from scratch.
    """
    r = np.abs(np.asarray(r, dtype=float))
    if is_cauchy(alpha):
        return cauchy_unit_density(r, d)
    if exact:
        flat = r.reshape(-1)
        vals = np.array([unit_density(float(x), d, alpha)[0] for x in flat])
        return vals.reshape(r.shape)
    return _unit_density_interpolant(d, alpha)(r)


def kernel_t(t, r, d: int, alpha: float):
    """p_t at radius r (arrays broadcast), by exact self-similar scaling."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    scale = t ** (-1.0 / alpha)
    return t ** (-d / alpha) * unit_density_grid(r * scale, d, alpha)


def radius(x) -> float:
    """|x| of a point, or of a bare radius.

    The norm squares the coordinates, so a point whose coordinates are all
    below about 1e-162 reads as 0; only then is it rescaled by its largest
    coordinate, and every other radius keeps the norm's bits.
    """
    if not np.ndim(x):
        return float(abs(x))
    r = float(np.linalg.norm(x))
    if r == 0.0:
        x = np.asarray(x, dtype=float)
        top = float(np.max(np.abs(x)))
        if top > 0.0:
            r = top * float(np.linalg.norm(x / top))
    return r


def _unit_radius(t: float, r: float, alpha: float) -> float:
    """rho = r t^{-1/alpha}, where p_t(r) = t^{-d/alpha} p_1(rho); inf for
    r > 0 where t^{-1/alpha} is beyond any float."""
    if is_cauchy(alpha):
        return r / t
    try:
        return r * t ** (-1.0 / alpha)
    except OverflowError:
        return inf if r > 0.0 else 0.0


def free_kernel(t: float, x, d: int, alpha: float) -> KernelValue:
    """The free heat kernel p_t(x) with provenance and error estimate.

    Raises DomainError when p_t(x) is not a finite float; the scale factor
    t^{-d/alpha} alone may overflow where the value does not.
    """
    if not 0.0 < t < np.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    r = radius(x)
    cauchy = is_cauchy(alpha)
    if cauchy:
        method, expo = Method.CLOSED_FORM, -d
    else:
        _check_alpha(d, alpha)
        method, expo = Method.FOURIER_INVERSION, -d / alpha
    rho = _unit_radius(t, r, alpha)
    if _in_far_tail(rho, d, alpha):
        # p_1(rho) is below the smallest normal float, and the factor s cannot
        # restore its lost digits: take the leading tail term A t r^{-d-alpha},
        # as A (t r^{-alpha}) r^{-d}, in which no power overflows unless r
        # is tiny
        a_levy = levy_constant(d, alpha)
        try:
            val = a_levy * (t * r ** -alpha) * r ** -d
        except OverflowError:
            val = _exp(log(a_levy) + log(t) - (d + alpha) * log(r))
        err = val * max(rho ** -alpha, 1e-16)
    else:
        v, e = (float(cauchy_unit_density(rho, d)), 0.0) if cauchy \
            else unit_density(rho, d, alpha)
        try:
            s = t ** expo
            val, err = s * v, s * e
        except OverflowError:          # s overflows, the value may not
            val = _exp(expo * log(t) + log(v))
            err = val * (e / v)
        if cauchy:
            err = 1e-16 * val
    if not isfinite(val):
        raise DomainError(f"t = {t:g} is too small: p_t(x) overflows")
    return KernelValue(val, err, method)


def _exp(x: float) -> float:
    """exp(x), inf where it overflows."""
    return exp(x) if x < _LOG_HUGE else inf


def free_kernel_bound_ratio(t: float, x, d: int, alpha: float) -> float:
    """Ratio of p_t(x) to the envelope min(t^{-d/alpha}, t |x|^{-d-alpha}).

    Both carry the factor t^{-d/alpha} at rho = |x| t^{-1/alpha}, so the
    ratio is p_1(rho) max(1, rho^{d+alpha}), with no power of t or |x|; where
    p_1(rho) is its leading tail term A rho^{-d-alpha} it is A.
    """
    if not 0.0 < t < np.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    rho = _unit_radius(t, radius(x), alpha)
    if _in_far_tail(rho, d, alpha):
        return levy_constant(d, alpha)
    return unit_density(rho, d, alpha)[0] * max(1.0, rho ** (d + alpha))


def levy_symbol(xi_norm: float, d: int, alpha: float) -> float:
    """Numerical evaluation of the jump-measure symbol integral at |xi|.

    Computes int [1 - cos(xi . y)] nu(y) dy by radial reduction; the exact
    answer is |xi|^alpha by the normalization of the Levy density.
    """
    if xi_norm < 0.0:
        raise DomainError("xi_norm must be nonnegative")
    if xi_norm == 0.0:
        return 0.0
    return _symbol_unit_integral(d, alpha) * xi_norm ** alpha


@lru_cache(maxsize=32)
def _symbol_unit_integral(d: int, alpha: float) -> float:
    """A(d,alpha) * |S^{d-1}| * int_0^inf u^{-1-alpha} (1 - mean_cos(u)) du.

    Equals 1 when the Levy density normalization is correct; the oscillatory
    part is integrated between Bessel-zero panels with epsilon acceleration.
    """
    from .quadrature import epsilon_accelerate

    a = levy_constant(d, alpha)
    area = sphere_area(d)
    nu_ord = d / 2.0 - 1.0
    g = _gamma(d / 2.0)

    def mean_cos(u):
        u = np.asarray(u, dtype=float)
        out = np.ones_like(u)
        nz = u > 0
        out[nz] = g * (2.0 / u[nz]) ** nu_ord * jv(nu_ord, u[nz])
        return out

    # u in (0, u_split]: term-by-term from the Bessel power series of mean_cos,
    # avoiding the catastrophic cancellation of 1 - mean_cos at small u
    u_split = 0.5
    total = 0.0
    c_m = 1.0
    for m in range(1, 60):
        c_m *= -1.0 / (4.0 * m * (d / 2.0 + m - 1.0))
        term = -c_m * u_split ** (2.0 * m - alpha) / (2.0 * m - alpha)
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    # u in (u_split, 1]: direct quadrature, cancellation now harmless
    xs, ws = panel_nodes(u_split, 1.0, 48)
    total += float(np.sum(ws * xs ** (-1.0 - alpha) * (1.0 - mean_cos(xs))))
    # u in (1, inf): 1/alpha minus the oscillatory mean-cos integral
    total += 1.0 / alpha
    edges = [1.0]
    k = 1
    while len(edges) < 200:
        z = (k + nu_ord / 2.0 - 0.25) * pi
        k += 1
        if z <= 1.0:
            continue
        edges.append(z)
    partial = []
    acc = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = panel_nodes(lo, hi, 24)
        acc += float(np.sum(w * x ** (-1.0 - alpha) * mean_cos(x)))
        partial.append(acc)
    osc, _ = epsilon_accelerate(np.array(partial[-40:]))
    total -= osc
    return a * area * total


# ---------------------------------------------------------------------------
# Weighted integrals against |z|^{-beta}


def closed_form_c1(d: int, alpha: float, beta: float) -> float:
    """Normalizer of the time-weight representation of |x|^{-beta}:
    1 / int_0^infty s^{(d-alpha-beta)/alpha} p_s(e) ds for a unit vector e,
    in Gamma-function closed form."""
    if not (0.0 < beta < d):
        raise DomainError(f"beta must lie in (0, d), got {beta}")
    lognum = (d - beta) * log(2.0) + (d / 2.0) * log(pi) + lgamma((d - beta) / 2.0)
    logden = lgamma((d - beta) / alpha) + lgamma(beta / 2.0)
    return np.exp(lognum - logden)


def weighted_mass(s: float, x, beta: float, d: int, alpha: float) -> KernelValue:
    """int p(s, x, z) |z|^{-beta} dz via the 1-d subordination representation."""
    if not (0.0 < beta < d):
        raise DomainError(f"beta must lie in (0, d), got {beta}")
    if s <= 0.0:
        raise DomainError(f"s must be positive, got {s}")
    r = radius(x)
    c1 = closed_form_c1(d, alpha, beta)
    nu = (d - alpha - beta) / alpha
    scale = max(s, r ** alpha, 1e-30)
    u_lo, u_hi = 1e-9 * scale, 1e9 * scale
    xs, ws = log_panel_nodes(u_lo, u_hi, n_per_panel=16, per_decade=3)
    vals = kernel_t(s + xs, r, d, alpha)
    integral = float(np.sum(ws * xs ** nu * vals))
    # endpoints: ~ p_s(r) u^nu at 0; ~ p_1(0) u^{nu-d/alpha} at infinity
    p_near = kernel_t(s, max(r, 1e-300), d, alpha).item()
    integral += p_near * u_lo ** (nu + 1.0) / (nu + 1.0)
    p0 = unit_density(0.0, d, alpha)[0]
    expo = nu - d / alpha + 1.0
    integral += p0 * u_hi ** expo / (-expo)
    val = c1 * integral
    return KernelValue(val, abs(val) * 1e-7, Method.FOURIER_INVERSION)


def time_integrated_mass(t: float, x, beta: float, d: int, alpha: float) -> float:
    """int_0^t int p(s, x, z) |z|^{-beta} dz ds by quadrature over s.

    Diverges (returns inf) at x = 0 when beta >= alpha.
    """
    if not (0.0 < beta < d):
        raise DomainError(f"beta must lie in (0, d), got {beta}")
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    r = radius(x)
    if r == 0.0 and beta >= alpha:
        return float("inf")
    s_lo = 1e-9 * t
    xs, ws = log_panel_nodes(s_lo, t, n_per_panel=16, per_decade=4)
    vals = np.array([weighted_mass(float(sv), r, beta, d, alpha).value for sv in xs])
    integral = float(np.sum(ws * vals))
    # left endpoint: h_beta(s, x) -> r^{-beta} (x != 0) or ~ s^{-beta/alpha}
    if r > 0.0:
        integral += r ** (-beta) * s_lo
    else:
        integral += s_lo ** (1.0 - beta / alpha) / (1.0 - beta / alpha)
    return integral


def angular_chords(a, r, d: int):
    """Distances |a e - r omega| = sqrt(a^2 + r^2 - 2 a r c) at the nodes c of
    the spherical-mean rule; a and r broadcast, the nodes form the last axis.

    The value is symmetric in a and r to the last bit: 2.0 * a is exact.
    """
    c, _ = sphere_angle_rule(d, _ANGULAR_NODES)
    a = np.asarray(a, dtype=float)[..., None]
    r = np.asarray(r, dtype=float)[..., None]
    # in place: a table of many rows is built with no temporary of its size
    out = 2.0 * a * r * c
    np.subtract(a ** 2 + r ** 2, out, out=out)
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


def angular_mean(t: float, chords, d: int, alpha: float) -> np.ndarray:
    """Spherical mean of p_t over each row of a 2-d table of angular_chords;
    the same numbers as angular_average.

    The kernel is evaluated in blocks of _BLOCK_ROWS rows, so that its
    temporaries stay small however long the table is.
    """
    _, w = sphere_angle_rule(d, _ANGULAR_NODES)
    out = np.empty(len(chords))
    for lo in range(0, len(chords), _BLOCK_ROWS):
        vals = kernel_t(t, chords[lo:lo + _BLOCK_ROWS], d, alpha)
        vals *= w
        np.sum(vals, axis=-1, out=out[lo:lo + _BLOCK_ROWS])
    return out


def angular_average(t: float, a, r, d: int, alpha: float):
    """Spherical mean of p_t over placements at mutual distance sqrt(a^2+r^2-2arc).

    a and r broadcast; returns the mean of p_t(|a e - r omega|) over unit
    vectors omega.
    """
    _, w = sphere_angle_rule(d, _ANGULAR_NODES)
    return np.sum(kernel_t(t, angular_chords(a, r, d), d, alpha) * w, axis=-1)


def log_identity_residual(t: float, x, d: int, alpha: float) -> float:
    """Residual of the logarithmic identity linking the time-integrated
    potential mass to the kernel-averaged logarithm.

    LHS: prefactor * int_0^t int p(s,x,y) |y|^{-alpha} dy ds
    RHS: int p(t,x,y) ln|y| dy - ln|x|
    """
    r = radius(x)
    if r <= 0.0:
        raise DomainError("x must be nonzero")
    if d <= alpha:
        raise DomainError("requires alpha < d")
    pref = np.exp(
        lgamma(alpha / 2.0) + lgamma(d / 2.0) - (1.0 - alpha) * log(2.0) - lgamma((d - alpha) / 2.0)
    )
    lhs = pref * time_integrated_mass(t, r, alpha, d, alpha)
    # RHS by radial quadrature around the origin with the angular-averaged kernel
    area = sphere_area(d)
    scale = max(r, t ** (1.0 / alpha))
    xs, ws = log_panel_nodes(1e-8 * scale, 1e8 * scale, n_per_panel=16, per_decade=4)
    avg = angular_average(t, r, xs, d, alpha)
    rhs = float(np.sum(ws * xs ** (d - 1) * np.log(xs) * avg)) * area - log(r)
    return lhs - rhs
