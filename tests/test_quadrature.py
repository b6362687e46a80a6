"""Panel rules, log grids, sphere angle averaging, sequence acceleration."""

import numpy as np
import pytest

from hardyheat.quadrature import (
    composite_nodes,
    epsilon_accelerate,
    log_panel_nodes,
    panel_nodes,
    refined_unit_nodes,
    sphere_angle_rule,
)


def test_panel_nodes_polynomial_exactness():
    # n-point Gauss integrates degree 2n-1 exactly
    x, w = panel_nodes(-1.0, 3.0, 6)
    for p in range(0, 12):
        exact = (3.0 ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)
        assert np.sum(w * x ** p) == pytest.approx(exact, rel=1e-13)


def test_log_panel_nodes_power_law():
    # int_a^b r^{-1.5} dr over five decades
    x, w = log_panel_nodes(1e-3, 1e2, n_per_panel=12, per_decade=3)
    val = np.sum(w * x ** -1.5)
    exact = 2.0 * (1e-3 ** -0.5 - 1e2 ** -0.5)
    assert val == pytest.approx(exact, rel=1e-12)
    assert np.all(np.diff(x) > 0)


def test_composite_nodes_are_the_panel_rules():
    # the panels' rules side by side, bit for bit
    for edges, n in ((np.geomspace(1e-8, 1e3, 34), 8),
                     (np.linspace(0.5, 7.0, 17), 6)):
        x, w = composite_nodes(edges, n)
        ref = [panel_nodes(a, b, n) for a, b in zip(edges[:-1], edges[1:])]
        assert np.array_equal(x, np.concatenate([r[0] for r in ref]))
        assert np.array_equal(w, np.concatenate([r[1] for r in ref]))


def test_refined_unit_nodes_endpoint_singularity():
    x, w = refined_unit_nodes(n_per_panel=12, edge_ratio=1e-12, per_decade=3.0)
    # integrable endpoint singularities at both ends; accuracy is limited by
    # the truncated mass below edge_ratio
    val = np.sum(w * (x * (1.0 - x)) ** -0.5)
    assert val == pytest.approx(np.pi, rel=1e-6)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-14)


def test_sphere_angle_rule_moments():
    # mean of cos^2(theta) over the sphere is 1/d
    for d in (2, 3):
        c, w = sphere_angle_rule(d, 24)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-13)
        assert np.sum(w * c ** 2) == pytest.approx(1.0 / d, rel=1e-12)
        assert np.sum(w * c) == pytest.approx(0.0, abs=1e-14)


def test_sphere_angle_rule_d1():
    c, w = sphere_angle_rule(1, 8)
    assert np.allclose(c, [-1.0, 1.0])
    assert np.allclose(w, [0.5, 0.5])


def test_epsilon_accelerate_alternating_series():
    # pi/4 = 1 - 1/3 + 1/5 - ... converges painfully slowly; epsilon
    # acceleration should extract many digits from a short prefix
    terms = np.array([(-1.0) ** k / (2 * k + 1) for k in range(20)])
    partial = np.cumsum(terms)
    est, err = epsilon_accelerate(partial)
    assert est == pytest.approx(np.pi / 4.0, abs=1e-10)
    assert abs(est - np.pi / 4.0) < 100 * max(err, 1e-15)


def test_epsilon_accelerate_short_input():
    est, err = epsilon_accelerate(np.array([2.0]))
    assert est == 2.0
    est, err = epsilon_accelerate(np.array([1.0, 1.5]))
    assert est == 1.5
