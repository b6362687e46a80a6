"""Free stable kernel: density routes, symbol, weighted masses, identities."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from hardyheat.errors import DomainError
from hardyheat.params import kappa_of_beta
from hardyheat.stable_kernel import (
    UniformCubic,
    _hankel_quadrature,
    _small_r_series,
    _tail_series,
    cauchy_unit_density,
    free_kernel,
    free_kernel_bound_ratio,
    kernel_t,
    levy_constant,
    levy_symbol,
    log_identity_residual,
    radius,
    time_integrated_mass,
    unit_density,
    unit_density_grid,
    weighted_mass,
)


def _series_or_hankel(r: float, d: int, alpha: float):
    """Force the Fourier-side evaluation even where a closed form exists."""
    res = _tail_series(r, d, alpha, 1e-10)
    if res is None:
        res = _small_r_series(r, d, alpha, 1e-10)
    if res is None:
        res = _hankel_quadrature(r, d, alpha)
    return res


def test_fourier_route_matches_cauchy_closed_form():
    rs = np.geomspace(1e-2, 1e2, 50)
    for r in rs:
        v, _ = _series_or_hankel(float(r), 2, 1.0)
        assert v == pytest.approx(cauchy_unit_density(float(r), 2), rel=1e-8)


def test_fourier_route_matches_cauchy_d3():
    for r in (0.1, 1.0, 5.0):
        v, _ = _series_or_hankel(r, 3, 1.0)
        assert v == pytest.approx(cauchy_unit_density(r, 3), rel=1e-8)


def test_unit_density_positive_and_decreasing():
    rs = np.geomspace(1e-3, 1e3, 40)
    vals = [unit_density(float(r), 2, 1.5)[0] for r in rs]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_unit_density_normalization():
    # int p_1 = 1, by radial quadrature plus the exact power-law tail
    from hardyheat.quadrature import log_panel_nodes
    from hardyheat.stable_kernel import sphere_area

    for d, alpha in [(2, 1.0), (2, 1.5), (3, 1.0)]:
        r_hi = 1e6
        xs, ws = log_panel_nodes(1e-8, r_hi, n_per_panel=16, per_decade=3)
        vals = np.array([unit_density(float(x), d, alpha)[0] for x in xs])
        area = sphere_area(d)
        mass = area * float(np.sum(ws * xs ** (d - 1) * vals))
        mass += area * levy_constant(d, alpha) * r_hi ** -alpha / alpha
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_interpolant_grid_route():
    rs = np.geomspace(1e-2, 1e2, 30)
    fast = unit_density_grid(rs, 2, 1.5)
    slow = np.array([unit_density(float(r), 2, 1.5)[0] for r in rs])
    assert np.max(np.abs(fast / slow - 1.0)) < 1e-7


def test_kernel_scaling():
    # p(t, r) = t^{-d/alpha} p(1, r t^{-1/alpha})
    d, alpha = 2, 1.0
    for t in (0.3, 2.0):
        for r in (0.5, 3.0):
            lhs = kernel_t(t, r, d, alpha)
            rhs = t ** (-d / alpha) * kernel_t(1.0, r * t ** (-1.0 / alpha), d, alpha)
            assert float(lhs) == pytest.approx(float(rhs), rel=1e-12)


def test_free_kernel_cauchy_value():
    # p_1((1,0)) in d=2, alpha=1: closed form 1/(2 pi (1 + r^2)^{3/2})
    v = free_kernel(1.0, (1.0, 0.0), 2, 1.0)
    assert v.value == pytest.approx(1.0 / (2.0 * np.pi * 2.0 ** 1.5), rel=1e-14)
    with pytest.raises(DomainError):
        free_kernel(0.0, (1.0, 0.0), 2, 1.0)


def test_free_kernel_at_tiny_times():
    # far out in the tail the scaled density p_1(r t^{-1/alpha}) underflows
    # while p_t(r) ~ A t r^{-d-alpha} does not
    v = free_kernel(1e-150, (1.0, 0.0), 2, 1.0)
    # Cauchy closed form c t / (t^2 + r^2)^{3/2}, c = 1 / (2 pi)
    assert v.value == pytest.approx(1e-150 / (2.0 * np.pi), rel=1e-14)
    v = free_kernel(1e-200, (1.0, 0.0), 2, 1.5)
    assert v.value == pytest.approx(levy_constant(2, 1.5) * 1e-200, rel=1e-6)
    # the same term on either side of the switch to it
    for alpha in (1.0, 1.5):
        for r in np.geomspace(1e80, 1e95, 7):
            v = free_kernel(1.0, r, 2, alpha).value
            assert v == pytest.approx(levy_constant(2, alpha) * r ** (-2 - alpha),
                                      rel=1e-12)
    # and there as everywhere, alpha < d
    with pytest.raises(DomainError):
        free_kernel(1.0, 1e100, 1, 1.5)


@pytest.mark.parametrize("d, alpha", [(1, 0.5), (2, 0.3), (3, 0.7)])
def test_unit_density_at_origin(d, alpha):
    # p_1(0) = 2 Gamma(d/alpha) / (alpha (4 pi)^{d/2} Gamma(d/2))
    exact = 2.0 * math.gamma(d / alpha) / (
        alpha * (4.0 * math.pi) ** (d / 2.0) * math.gamma(d / 2.0))
    v, e = unit_density(0.0, d, alpha)
    assert v == pytest.approx(exact, rel=1e-14)
    assert 0.0 < e <= 1e-15 * v


def test_unit_density_far_tail():
    # every term of the tail series underflows at r = 1e100
    v, e = unit_density(1e100, 2, 1.5)
    assert v == 0.0 and e == 0.0
    v, _ = unit_density(1e90, 2, 1.5)
    assert v == pytest.approx(levy_constant(2, 1.5) * 1e90 ** -3.5, rel=1e-12)


def test_free_kernel_envelope():
    # p_t(x) <= C min(t^{-d/alpha}, t |x|^{-d-alpha}) with a ratio of order 1
    for t in (0.1, 1.0, 10.0):
        for r in (0.01, 1.0, 100.0):
            ratio = free_kernel_bound_ratio(t, r, 2, 1.0)
            assert 0.0 < ratio < 1.0


def test_free_kernel_envelope_at_tiny_times():
    # t^{-d/alpha} (and |x|^{-d-alpha}) overflow; the ratio does not.  In the
    # far tail p_t(x) = A t |x|^{-d-alpha}, so the ratio is A.
    assert free_kernel_bound_ratio(1e-200, 1.0, 2, 1.0) == pytest.approx(
        levy_constant(2, 1.0), rel=1e-12)
    assert free_kernel_bound_ratio(1e-300, (1e-170, 0.0), 2, 1.0) == pytest.approx(
        levy_constant(2, 1.0), rel=1e-12)
    assert free_kernel_bound_ratio(1e-200, 1.0, 2, 1.5) == pytest.approx(
        levy_constant(2, 1.5), rel=1e-6)
    # where p_t(x) and the envelope both underflow, or rho overflows
    for t, r, alpha in [(1.0, 1e200, 1.0), (1.0, 1e100, 1.5), (1e-200, 1e200, 1.0)]:
        assert free_kernel_bound_ratio(t, r, 2, alpha) == pytest.approx(
            levy_constant(2, alpha), rel=1e-12)


def test_radius():
    # coordinates whose squares underflow still have their radius
    assert radius((1e-170, 0.0)) == 1e-170
    assert radius(np.array([0.0, -1e-170, 0.0])) == 1e-170
    assert radius((3e-170, 4e-170)) == pytest.approx(5e-170, rel=1e-15)
    assert radius((0.0, 0.0)) == 0.0
    assert radius(-2.5) == 2.5
    # every other radius is the norm's, to the bit
    for x in [(3.0, 4.0), (1e-150, 2e-151), (0.1, 0.7, 1e3), (1e150, 1e150)]:
        assert radius(x) == float(np.linalg.norm(x))
    assert free_kernel(1e-300, (1e-170, 0.0), 2, 1.0).value == pytest.approx(
        1.5915494309192622e+209, rel=1e-14)


def test_uniform_cubic_is_scipys_spline():
    # the p_1 interpolant's spline, evaluated without scipy: the same bits
    grid = np.geomspace(1e-4, 1e4, 1600)
    vals = np.array([unit_density(float(r), 2, 1.5)[0] for r in grid])
    spline = CubicSpline(np.log(grid), np.log(vals))
    fast = UniformCubic(spline)
    x = spline.x
    dense = np.log(np.geomspace(1e-4, 1e4, 400_001))
    beyond = np.log(np.concatenate([np.geomspace(1e-9, 1e-4, 501),
                                    np.geomspace(1e4, 1e9, 501)]))
    breakpoints = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    for pts in (dense, beyond, breakpoints, breakpoints.reshape(3, -1),
                np.float64(x[7]), np.array(0.3), np.empty(0)):
        got, want = fast(pts), spline(pts)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    # the interval search relies on uniform breakpoints
    uneven = np.geomspace(1.0, 1e3, 20)
    with pytest.raises(ValueError):
        UniformCubic(CubicSpline(uneven, np.sqrt(uneven)))


def test_levy_symbol_identity():
    for xi in (0.5, 1.0, 2.0, 7.0, 31.0):
        assert levy_symbol(xi, 2, 1.0) == pytest.approx(xi, rel=1e-6)
        assert levy_symbol(xi, 3, 1.0) == pytest.approx(xi, rel=1e-6)
        assert levy_symbol(xi, 2, 1.5) == pytest.approx(xi ** 1.5, rel=1e-6)
    assert levy_symbol(0.0, 2, 1.0) == 0.0


def test_weighted_mass_regression():
    # frozen reference value of int p_1((1,0) - y)|y|^{-1/2} dy in d=2, alpha=1
    m = weighted_mass(1.0, 1.0, 0.5, 2, 1.0)
    assert m.value == pytest.approx(0.74089619299938569, rel=1e-9)
    assert m.abs_error < 1e-6


def test_weighted_mass_scaling():
    # int p_s(x - y)|y|^{-b} dy = s^{-b/alpha} m(1, x s^{-1/alpha})
    d, alpha, b = 2, 1.0, 0.3
    s, r = 2.0, 1.5
    lhs = weighted_mass(s, r, b, d, alpha).value
    rhs = s ** (-b / alpha) * weighted_mass(1.0, r / s, b, d, alpha).value
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_free_kernel_weighted_identity():
    # int p(t,x,y)|y|^{-b} dy = |x|^{-b} - kappa_b int_0^t int p(s,x,y)|y|^{-b-a}
    d, alpha = 2, 1.0
    for (t, r, b) in [(1.0, 1.0, 0.3), (0.5, 2.0, 0.5), (2.0, 0.3, 0.25)]:
        lhs = weighted_mass(t, r, b, d, alpha).value
        kb = kappa_of_beta(d, alpha, b)
        rhs = r ** -b - kb * time_integrated_mass(t, r, b + alpha, d, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_log_identity_residual():
    for (t, r) in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.3)]:
        assert abs(log_identity_residual(t, (r, 0.0), 2, 1.0)) < 1e-4
    with pytest.raises(DomainError):
        log_identity_residual(1.0, (0.0, 0.0), 2, 1.0)
