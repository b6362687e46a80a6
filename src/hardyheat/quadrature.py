"""Low-level quadrature helpers: panel rules, log-spaced grids, sequence acceleration."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def panel_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = gauss_legendre(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def log_panels(a: float, b: float, per_decade: int = 2):
    """Panel edges geometrically spaced between a and b (both positive)."""
    n = max(1, int(np.ceil(np.log10(b / a) * per_decade)))
    return np.geomspace(a, b, n + 1)


def composite_nodes(edges, n: int):
    """Composite n-point Gauss-Legendre rule on the panels between
    consecutive edges; per panel the nodes and weights of panel_nodes."""
    edges = np.asarray(edges, dtype=float)
    x, w = gauss_legendre(n)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def log_panel_nodes(a: float, b: float, n_per_panel: int = 16, per_decade: int = 2):
    """Composite Gauss rule on geometrically spaced panels of [a, b]."""
    return composite_nodes(log_panels(a, b, per_decade), n_per_panel)


def refined_unit_nodes(n_per_panel: int = 8, edge_ratio: float = 1e-4,
                       per_decade: float = 1.0):
    """Nodes/weights on (0, 1) with panels refined geometrically toward both ends.

    Used for time integrals whose integrand concentrates at both endpoints.
    """
    n_half = max(2, int(np.ceil(np.log10(0.5 / edge_ratio) * per_decade)))
    half = np.geomspace(edge_ratio, 0.5, n_half + 1)
    edges = np.concatenate([[0.0], half, 1.0 - half[::-1][1:], [1.0]])
    return composite_nodes(np.unique(edges), n_per_panel)


@lru_cache(maxsize=64)
def sphere_angle_rule(d: int, n: int):
    """Quadrature for averaging over the polar angle on the unit sphere in R^d.

    Returns nodes c = cos(theta) and weights normalized to sum to 1, i.e. the
    rule computes the mean of g(cos(theta)) over the sphere's surface measure.
    For d = 1 the "sphere" is two points.
    """
    if d == 1:
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    # Surface measure induces the weight (1 - c^2)^{(d-3)/2} on c in (-1, 1).
    a = (d - 3) / 2.0
    c, w = roots_jacobi(n, a, a)
    return c, w / np.sum(w)


def epsilon_accelerate(partial_sums: np.ndarray):
    """Wynn's epsilon algorithm on a sequence of partial sums.

    Returns (estimate, error_estimate).  Robust for the alternating partial
    sums produced by integrating between Bessel zeros.
    """
    s = np.asarray(partial_sums, dtype=float)
    n = len(s)
    if n == 1:
        return float(s[0]), abs(float(s[0]))
    if n == 2:
        return float(s[1]), abs(float(s[1] - s[0]))
    scale = max(1.0, float(np.max(np.abs(s))))
    prev = np.zeros(n + 1)  # column k-1
    curr = s.copy()         # column k
    estimates = [float(s[-1])]
    for k in range(1, n):
        diff = np.diff(curr)
        if np.any(np.abs(diff) < 1e-14 * scale):
            # sequence (or this column) has stalled at roundoff; extrapolating
            # further only amplifies noise
            break
        nxt = prev[1:len(curr)] + 1.0 / diff
        prev, curr = curr, nxt
        if len(curr) == 0:
            break
        if k % 2 == 0:
            finite = curr[np.isfinite(curr)]
            if len(finite):
                estimates.append(float(finite[-1]))
    best = estimates[-1]
    err = abs(best - estimates[-2]) if len(estimates) > 1 else abs(best - float(s[-1]))
    return best, err
