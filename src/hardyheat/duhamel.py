"""Perturbation series for the heat kernel of the fractional Laplacian with a
Hardy-type potential kappa |x|^{-alpha}.

The perturbed kernel is built as p_tilde = sum_n p_n where p_0 is the free
kernel and

    p_{n+1}(t, x, y) = kappa int_0^t int p(s, x, z) |z|^{-alpha}
                                       p_n(t - s, z, y) dz ds.

Two engines are provided:

* ``RadialWeightedEngine`` computes the weighted masses
  F_beta(t, x) = int p_tilde(t, x, y) |y|^{-beta} dy, which are radial in x
  and reduce to t = 1 by exact self-similar scaling.  These carry the
  invariance and supermedian checks.
* ``PlanarKernelEngine`` (d = 2 only) computes p_tilde(t, x, y) pointwise on
  a log-polar grid around a fixed y, by sweeping the Duhamel operator.

The time integral of the Duhamel formula has one quadrature, ``_duhamel_sum``:
the first term p_1, each sweep and ``duhamel_residual`` pass it their
integrand at the times (s, t - s).

Both treat the kernel concentration at small times by singularity
subtraction: int p(s, x, z) g(z) dz = g(x) + int p(s, x, z) (g(z) - g(x)) dz,
which stays accurate when the kernel peak is narrower than the grid spacing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from math import log, pi

import numpy as np

from .errors import DivergenceError, DomainError
from .params import ModelParams, kappa_of_beta
from .pool import ordered_map, workers
from .quadrature import log_panel_nodes, refined_unit_nodes
from .stable_kernel import (
    KernelValue,
    Method,
    angular_chords,
    angular_mean,
    free_kernel,
    is_cauchy,
    kernel_t,
    levy_constant,
    sphere_area,
    unit_density_grid,
    weighted_mass,
)

_SIGMA_PER_PANEL = 6      # Gauss points per time panel of the radial engine
_SIGMA_EDGE = 1e-8        # its relative refinement depth at the time endpoints
_RADIAL_R_MAX = 1e3       # outer radius of the radial engine's grid
_PLANAR_R_MIN, _PLANAR_R_MAX = 1e-3, 3e2   # radial extent of the planar grid
# OpenBLAS runs an (m, k) @ (k, n) product on the calling thread when
# m * k * n <= 1e6, and on its own threads above that.  Split into column
# blocks whose widths are multiples of 8, a product keeps the bits of one
# whole call; blocks of other widths (1, 4, 15, 27, 2267 columns) and
# single-row blocks moved them.  Measured with OpenBLAS 0.3.31 on an AVX-512
# Xeon, from the CPU time of its worker thread: the largest one-thread
# products were 17 x 17 x 3456, 21 x 21 x 2176, 192 x 192 x 27 and
# 256 x 256 x 15.
_BLAS_ONE_THREAD = 10 ** 6


@dataclass(frozen=True)
class QuadratureConfig:
    """Discretization knobs for the series engines."""

    rel_tol: float = 1e-3
    eps0: float = 1e-5            # inner radius; the |z|^{-alpha} ring below it
                                  # is integrated by an exact power-law substitution
    time_subdivisions: int = 16   # time-grid points of the pointwise engine
    max_terms: int = 60
    radial_per_decade: int = 3    # log panels per decade (8 Gauss points each)
    n_angular: int = 32           # angular grid of the pointwise engine (d = 2)
    sigma_per_decade: float = 2.0  # time-quadrature panels per decade

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 0.1):
            raise DomainError(f"rel_tol must lie in (0, 0.1), got {self.rel_tol}")
        if self.eps0 <= 0.0:
            raise DomainError(f"eps0 must be positive, got {self.eps0}")
        if self.max_terms < 1 or self.time_subdivisions < 4:
            raise DomainError("max_terms >= 1 and time_subdivisions >= 4 required")

    def refined(self, factor: float = 1.5) -> "QuadratureConfig":
        """A copy with the grid densities scaled up, for drift studies."""
        if not 0.0 < factor < np.inf:
            raise DomainError(f"the refinement factor must be positive and finite, "
                              f"got {factor}")
        return replace(
            self,
            time_subdivisions=int(round(self.time_subdivisions * factor)),
            radial_per_decade=int(round(self.radial_per_decade * factor)),
            n_angular=int(round(self.n_angular * factor / 2.0) * 2),
            sigma_per_decade=self.sigma_per_decade * factor,
        )


@dataclass
class SeriesState:
    """Partial sums of the perturbation series at one evaluation point."""

    terms: list
    tail_bound: float
    converged: bool

    @property
    def value(self) -> float:
        return float(np.sum(self.terms))


def _as_point(x) -> np.ndarray:
    """A point (or an array of points, last axis the coordinates) in the
    plane; a bare radius r stands for (r, 0)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 1:
        x = np.array([float(x[0]), 0.0])
    return x


def _resolution_blend(r, s: float, alpha: float, target, mass):
    """(scale, offset) of the peak-resolution blend around radius r at time
    s: int p g is taken as scale * (discrete sum of p g) + offset * g(r).

    The kernel peak (width s^{1/alpha}) is unresolved by the local grid
    spacing when lam -> 1; there the singularity-subtracted form
    g(r) + int p (g - g(r)) is used.  In the resolved regime (lam -> 0) the
    discrete kernel mass is rescaled toward its exact value target, with the
    factor clipped to [0.5, 2].  The offset lam (1 - scale mass) puts back
    the mass that the scaled sum misses.
    """
    lam = np.clip(np.log((0.5 * r) ** alpha / s) / log(16.0), 0.0, 1.0)
    factor = np.clip(target / np.maximum(mass, 1e-300), 0.5, 2.0)
    scale = 1.0 + (1.0 - lam) * (factor - 1.0)
    return scale, lam * (1.0 - scale * mass)


def _log_interp_matrix(r_grid: np.ndarray, targets: np.ndarray, gamma: float) -> np.ndarray:
    """Matrix mapping values on r_grid to values at target radii.

    Interpolates r^gamma * phi linearly in log r (exact for phi ~ r^{-gamma});
    beyond the last node the power law r^{-gamma} is continued, below the
    first node the first value's power law is continued likewise.
    """
    lg = np.log(r_grid)
    lt = np.log(targets)
    n = len(r_grid)
    mat = np.zeros((len(targets), n))
    idx = np.clip(np.searchsorted(lg, lt) - 1, 0, n - 2)
    f = (lt - lg[idx]) / (lg[idx + 1] - lg[idx])
    low = lt <= lg[0]
    high = lt >= lg[-1]
    mid = ~(low | high)
    rows = np.arange(len(targets))
    mat[rows[mid], idx[mid]] = (1.0 - f[mid]) * (r_grid[idx[mid]] / targets[mid]) ** gamma
    mat[rows[mid], idx[mid] + 1] = f[mid] * (r_grid[idx[mid] + 1] / targets[mid]) ** gamma
    mat[rows[low], 0] = (r_grid[0] / targets[low]) ** gamma
    mat[rows[high], n - 1] = (r_grid[-1] / targets[high]) ** gamma
    return mat


def _matmul_one_thread(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ b into out, in column blocks that OpenBLAS computes on the calling
    thread, so that the worker pool is the only parallelism whether or not
    the caller pinned BLAS.  b has a multiple of 8 columns (the grids have 8
    radii per panel), so every block does too, and out has the bits of one
    whole product.  Above 353 rows even 8 columns exceed _BLAS_ONE_THREAD;
    the blocks then keep the bits, not the thread."""
    step = max(8, _BLAS_ONE_THREAD // (a.shape[0] * a.shape[1]) // 8 * 8)
    for lo in range(0, b.shape[1], step):
        np.matmul(a, b[:, lo:lo + step], out=out[:, lo:lo + step])
    return out


class _AngularMeans:
    """Spherical means of p_s between the radii r and from them to the inner
    ring a_in, at any time s, from chord tables built once.

    The mean is symmetric in the two radii, so only the pairs i <= j are
    evaluated; both triangles are filled from them.  Equals angular_average
    to the last bit.  The chord tables are read-only, so the workers share
    them.
    """

    def __init__(self, r, a_in, d: int, alpha: float):
        n, m = len(r), len(a_in)
        self.d, self.alpha = d, alpha
        self._upper = np.triu_indices(n)
        self._pairs = angular_chords(r[self._upper[0]], r[self._upper[1]], d)
        self._ring = angular_chords(r[:, None], a_in[None, :], d).reshape(n * m, -1)
        self._shape = (n, m)

    def at(self, s: float):
        """(grid, ring) means at time s, in new arrays."""
        n, m = self._shape
        i, j = self._upper
        grid_mean = np.empty((n, n))
        grid_mean[i, j] = grid_mean[j, i] = angular_mean(s, self._pairs, self.d, self.alpha)
        return grid_mean, angular_mean(s, self._ring, self.d, self.alpha).reshape(n, m)


class RadialWeightedEngine:
    """Weighted masses F_beta(t, x) = int p_tilde(t, x, y)|y|^{-beta} dy.

    Self-similarity reduces everything to t = 1: F(t, x) =
    t^{-beta/alpha} F(1, t^{-1/alpha} x).  At t = 1 the series terms obey

        phi_{n+1}(r) = kappa int_0^1 (1-s)^{-beta/alpha}
                       [P_s (|.|^{-alpha} phi_n((1-s)^{-1/alpha} .))](r) ds

    which is discretized into a single dense matrix K on a log-radial grid;
    the series is then summed by sweeps or by solving (I - K) F = phi_0.
    """

    def __init__(self, params: ModelParams, beta: float,
                 cfg: QuadratureConfig = QuadratureConfig()):
        if not (0.0 <= beta < params.d):
            raise DomainError(f"beta must lie in [0, d), got {beta}")
        self.params = params
        self.beta = float(beta)
        self.cfg = cfg
        d, alpha = params.d, params.alpha
        self.r_grid, self.r_weights = log_panel_nodes(
            cfg.eps0, _RADIAL_R_MAX, n_per_panel=8, per_decade=cfg.radial_per_decade
        )
        self.s_nodes, self.s_weights = refined_unit_nodes(
            n_per_panel=_SIGMA_PER_PANEL, edge_ratio=_SIGMA_EDGE,
            per_decade=cfg.sigma_per_decade,
        )
        # inner-ring extrapolation exponent: the solution behaves like
        # r^{-max(beta, delta)} at the origin
        delta = params.delta if np.isfinite(params.delta) else (d - alpha) / 2.0
        self._slope_in = max(self.beta, delta)
        self.operator = self._build_operator()
        self.phi0 = np.array(
            [weighted_mass(1.0, r, beta, d, alpha).value for r in self.r_grid]
        ) if beta > 0.0 else np.ones_like(self.r_grid)

    # -- operator assembly --------------------------------------------------

    def _build_operator(self) -> np.ndarray:
        """K as the sum over the time nodes s of a term that depends on s
        alone.  The terms are computed in parallel and added in node order,
        so K has the same bits for any number of workers."""
        d, alpha = self.params.d, self.params.alpha
        kappa, beta = self.params.kappa, self.beta
        r = self.r_grid
        n = len(r)
        area = sphere_area(d)
        a_levy = levy_constant(d, alpha)
        a_in, w_in = log_panel_nodes(1e-4 * self.cfg.eps0, self.cfg.eps0, 8, 2)
        n_workers = workers()
        means = _AngularMeans(r, a_in, d, alpha)
        # the first call caches p_1's interpolant: make it before the workers
        unit_density_grid(0.0, d, alpha)

        def node_term(k: int):
            """(term of K, its addend to column 0, its addend to column -1)
            at the time node s_k."""
            s, ws = self.s_nodes[k], self.s_weights[k]
            cs = (1.0 - s) ** (-1.0 / alpha)
            pref = (1.0 - s) ** (-beta / alpha)
            grid_mean, th_in = means.at(s)
            # Theta[i, j]: quadrature-weighted angular-averaged kernel
            theta = grid_mean * (area * self.r_weights * r ** (d - 1))
            mass = theta.sum(axis=1)
            # resample phi at (1-s)^{-1/alpha} a_j, then weight by a^{-alpha}
            DR = _log_interp_matrix(r, cs * r, beta)
            DR *= pref * r[:, None] ** (-alpha)
            # resolved rows are rescaled to the exact mass (1 minus the ring
            # masses outside the grid), removing the leading quadrature error
            mass_in = area * (th_in @ (w_in * a_in ** (d - 1)))
            mass_out = area * s * a_levy * _RADIAL_R_MAX ** (-alpha) / alpha
            scale, offset = _resolution_blend(r, s, alpha, 1.0 - mass_in - mass_out, mass)
            # in place: each worker holds few n x n temporaries at a time
            theta *= scale[:, None]
            term = _matmul_one_thread(theta, DR, np.empty((n, n)))
            term += offset[:, None] * DR
            term *= kappa * ws
            # ring corrections outside the grid: below eps0 the integrand is
            # continued as the power law phi(x) ~ phi(r_0) (x/r_0)^{-slope}
            # and integrated against the angular-averaged kernel on a sub-grid
            sl = self._slope_in
            prof_in = a_in ** (d - 1 - alpha - sl)
            ring_in = (
                area * pref * (cs / r[0]) ** (-sl) * (th_in @ (w_in * prof_in))
            )
            expo_out = 1.0 + 2.0 * alpha + beta
            ring_out = (
                area * s * a_levy * pref * r[-1] ** beta * cs ** (-beta)
                * _RADIAL_R_MAX ** (-expo_out + 1.0) / (expo_out - 1.0)
            )
            return term, (kappa * ws) * ring_in, (kappa * ws) * ring_out

        K = np.zeros((n, n))
        for term, col_in, col_out in ordered_map(node_term, len(self.s_nodes), n_workers):
            K += term
            K[:, 0] += col_in
            K[:, -1] += col_out
        return K

    # -- evaluation ---------------------------------------------------------

    def solve(self) -> np.ndarray:
        """Sum of the series by direct solve of (I - K) F = phi_0."""
        n = len(self.r_grid)
        return np.linalg.solve(np.eye(n) - self.operator, self.phi0)

    def evaluator(self):
        """Callable F(t, radius) built from the t = 1 profile by scaling."""
        prof = self.solve()
        alpha, beta = self.params.alpha, self.beta
        r = self.r_grid
        logr = np.log(r)
        logw = np.log(np.maximum(prof, 1e-300)) + beta * logr  # r^beta * F, smooth
        slope_in = -self._slope_in + beta

        def F(t, radius):
            t = np.asarray(t, dtype=float)
            rho = np.asarray(radius, dtype=float) * t ** (-1.0 / alpha)
            rho = np.maximum(rho, 1e-300)
            lw = np.interp(np.log(rho), logr, logw)
            lo = rho < r[0]
            hi = rho > r[-1]
            lw = np.where(lo, logw[0] + slope_in * (np.log(rho) - logr[0]), lw)
            lw = np.where(hi, logw[-1], lw)
            return np.exp(lw) * rho ** (-beta) * t ** (-beta / alpha)

        return F


def time_integrated_profile(engine: RadialWeightedEngine, t: float,
                            radius: float) -> float:
    """int_0^t F_beta(s, x) ds at |x| = radius, from the engine's t=1 profile."""
    F = engine.evaluator()
    s_lo = 1e-7 * t
    xs, ws = log_panel_nodes(s_lo, t, n_per_panel=12, per_decade=4)
    # left endpoint: F(s, x) -> |x|^{-beta} as s -> 0 for x != 0
    return float(np.sum(ws * F(xs, radius))) + radius ** (-engine.beta) * s_lo


# ---------------------------------------------------------------------------
# Pointwise engine on a log-polar grid (d = 2)


def _duhamel_sum(kappa: float, t: float, node, rule):
    """kappa int_0^t node(s, t - s) ds by the rule (nodes, weights) on (0, 1).

    The one time quadrature of the Duhamel formula: p_1, each sweep and the
    residual pass their integrand here.  Both times are floored at 1e-300.
    """
    acc = 0.0
    for v, wv in zip(*rule):
        acc += wv * node(max(t * v, 1e-300), max(t * (1.0 - v), 1e-300))
    return kappa * t * acc


def _ring_in(r_min: float, r0: float, ring: float, q: float) -> float:
    """int of G(w) over the disc |w| < r_min, G continued inside the first
    radial circle r0 as the power law G(r0, theta) (|w| / r0)^{-q}, whose
    angular integral on that circle is ring."""
    expo = 2.0 - q
    return r_min ** expo / expo * r0 ** q * ring


@dataclass(frozen=True, eq=False)
class KernelSlice:
    """One array on a planar engine's log-polar grid, with the geometry that
    reads and integrates it: values[i, j] sits at radius r_grid[i] and angle
    y_angle + theta[j] (angle step w_theta, cell area cell_w[i, 0]), and
    behaves like |z|^{-slope_in} inside r_min.  converged is the flag of the
    fixed point that the values come from."""

    r_grid: np.ndarray
    theta: np.ndarray
    w_theta: float
    cell_w: np.ndarray
    y_angle: float
    r_min: float
    slope_in: float
    values: np.ndarray
    converged: bool

    def require_converged(self) -> "KernelSlice":
        """This slice; DivergenceError if its fixed point has not converged."""
        if not self.converged:
            raise DivergenceError("the planar fixed point has not converged")
        return self

    def read(self, points) -> np.ndarray:
        """Bilinear (log r, theta) interpolation of log values at the points
        (last axis the coordinates); one value per point.

        The radius is clamped to the grid: a point inside the first circle
        r_grid[0] (so every point inside r_min) reads that circle's value,
        not the |z|^{-slope_in} continuation, and a point beyond the last
        circle reads the last circle's.  Continuing V as |z|^{-delta} in
        the origin patch of Chapman-Kolmogorov's cross terms moves its lhs
        by 4e-8 relative at kappa = 0.1 and by 2.0e-6 at kappa*, so the
        clamp stays.
        """
        x = _as_point(points)
        r, n = self.r_grid, len(self.theta)
        rx = np.clip(np.hypot(x[..., 0], x[..., 1]), r[0], r[-1])
        th = (np.arctan2(x[..., 1], x[..., 0]) - self.y_angle) % (2.0 * pi)
        i = np.clip(np.searchsorted(r, rx) - 1, 0, len(r) - 2)
        fr = np.log(rx / r[i]) / np.log(r[i + 1] / r[i])
        # the fraction is taken before the index wraps: a point just below
        # the axis has th -> 2 pi and reads column 0 at ft -> 0
        jr = (th / (2.0 * pi) * n).astype(int)
        ft = th / self.w_theta - jr
        j = jr % n
        j2 = (j + 1) % n
        L = np.log(np.maximum(self.values, 1e-300))
        val = ((1 - fr) * (1 - ft) * L[i, j] + (1 - fr) * ft * L[i, j2]
               + fr * (1 - ft) * L[i + 1, j] + fr * ft * L[i + 1, j2])
        return np.exp(val)

    def integrate(self, weight: np.ndarray, q: float) -> float:
        """int values(z) weight(z) dz, weight a grid array: the cell-weighted
        grid sum plus the disc inside r_min, where the product is continued
        as the power law |z|^{-q}."""
        ring = self.w_theta * float(np.sum(self.values[0] * weight[0]))
        return (float(np.sum(self.cell_w * self.values * weight))
                + _ring_in(self.r_min, self.r_grid[0], ring, q))


class PlanarKernelEngine:
    """Pointwise p_tilde(tau, z, y) for d = 2 on a log-polar grid around a
    fixed y, for all tau on a geometric time grid up to t.

    The angular direction is uniform, so every convolution with the free
    kernel is a circular convolution contracted by FFT.  The same
    peak-resolution blend as the radial engine is applied: singularity
    subtraction where the kernel is narrower than the grid, row mass
    normalization where it is resolved.
    """

    def __init__(self, params: ModelParams, t: float, y,
                 cfg: QuadratureConfig = QuadratureConfig()):
        if params.d != 2:
            raise DomainError("the pointwise grid engine supports d = 2 only")
        if t <= 0.0:
            raise DomainError(f"t must be positive, got {t}")
        self.params = params
        self.cfg = cfg
        self.t = float(t)
        y = _as_point(y)
        self.ry = float(np.hypot(y[0], y[1]))
        self.y_angle = float(np.arctan2(y[1], y[0]))
        if self.ry <= 0.0:
            raise DomainError("y must be nonzero")
        self.r_min, self.r_max = _PLANAR_R_MIN, _PLANAR_R_MAX
        self.r_grid, self.r_weights = log_panel_nodes(
            self.r_min, self.r_max, n_per_panel=8, per_decade=cfg.radial_per_decade
        )
        self.n_theta = cfg.n_angular
        self.theta = 2.0 * pi * np.arange(self.n_theta) / self.n_theta
        self.w_theta = 2.0 * pi / self.n_theta
        nt = cfg.time_subdivisions
        self.tau = t * np.geomspace(1e-2, 1.0, nt)
        # (nodes, weights) of the Duhamel time integral on (0, 1)
        self.v_rule = refined_unit_nodes(n_per_panel=5, edge_ratio=1e-4, per_decade=1.2)
        # the V-side integrand is smooth after subtraction; a leaner rule does
        self.v_rule_lean = refined_unit_nodes(n_per_panel=4, edge_ratio=1e-3, per_decade=0.8)
        r = self.r_grid
        cosd = np.cos(self.theta)
        # squared distances between grid circles, indexed (angle lag, radius,
        # radius); the lags past n_theta / 2 mirror those below it
        m = self.n_theta // 2 + 1
        self.dist2 = (r[None, :, None] ** 2 + r[None, None, :] ** 2
                      - 2.0 * r[None, :, None] * r[None, None, :] * cosd[:m, None, None])
        # the rfft over the lag of a sequence even in the lag, as a real
        # (frequency, lag) matrix on the lags 0..n_theta/2; every lag but 0
        # and n_theta/2 also stands for its mirror
        lag = np.arange(m)
        mirrored = np.where((lag == 0) | (2 * lag == self.n_theta), 1.0, 2.0)
        self._lag_cos = mirrored * np.cos(2.0 * pi * np.outer(lag, lag) / self.n_theta)
        # distances from grid points to y (y at angle 0 in engine coordinates)
        self.dist_y = np.sqrt(np.maximum(
            r[:, None] ** 2 + self.ry ** 2 - 2.0 * r[:, None] * self.ry * cosd[None, :],
            0.0,
        ))
        self.cell_w = (self.r_weights * r)[:, None] * self.w_theta  # area weights
        delta = params.delta if np.isfinite(params.delta) else (params.d - params.alpha) / 2.0
        self._slope_in = delta
        # also fills p_1's interpolant cache (alpha != 1) before any worker runs
        self._p0 = np.array([self._free_at_y(tk) for tk in self.tau])
        self._terms = [self._p0]   # the grid series terms p_0, p_1, ... so far
        self._fp = None
        self._local = threading.local()   # each thread's _kernel_fft buffers
        # the blend coefficients at each time s, see _coefficients; the tau
        # tasks of a sweep fill it concurrently, so it is guarded by a lock
        self._coef = {}
        self._coef_lock = threading.Lock()

    # -- free-kernel helpers -------------------------------------------------

    def _free_at_y(self, s: float) -> np.ndarray:
        """p(s, z, y) on the spatial grid."""
        return kernel_t(s, self.dist_y, 2, self.params.alpha)

    def _kernel_fft(self, s: float) -> np.ndarray:
        """Angle-lag rfft of p(s, |z - w|) between grid circles, indexed
        (frequency, radius of z, radius of w).

        The kernel is even in the lag, so the transform is real and one
        matrix product over the lags 0..n_theta/2.  The result lives in a
        workspace of the calling thread that its next call overwrites: a
        sweep makes hundreds of these calls, and fresh arrays of this size
        would be returned to the OS on every free and page-faulted back in.
        """
        ws = getattr(self._local, "ws", None)
        if ws is None:
            ws = self._local.ws = (np.empty_like(self.dist2), np.empty_like(self.dist2))
        P, khat = ws
        if is_cauchy(self.params.alpha):
            q = np.add(self.dist2, s * s, out=khat)   # q is dead before khat is written
            np.sqrt(q, out=P)
            np.multiply(q, P, out=P)
            np.divide(s / (2.0 * pi), P, out=P)
        else:
            P = kernel_t(s, np.sqrt(self.dist2), 2, self.params.alpha)
        m = len(self._lag_cos)
        _matmul_one_thread(self._lag_cos, P.reshape(m, -1), khat.reshape(m, -1))
        return khat

    def _apply(self, khat: np.ndarray, G: np.ndarray) -> np.ndarray:
        """sum_w cell_w[w] p(s, z, w) G[w] via the circulant angle structure."""
        ghat = np.fft.rfft(self.cell_w * G, axis=-1).T
        # (frequency, radius, re/im): one real matrix product per frequency
        g = np.ascontiguousarray(ghat).view(float).reshape(ghat.shape + (2,))
        I = np.matmul(khat, g).view(complex)[..., 0]
        return np.fft.irfft(I.T, n=self.n_theta, axis=-1)

    def _coefficients(self, s: float, khat: np.ndarray):
        """(scale, offset, p_s on r_grid) of the resolution blend at time s,
        khat being _kernel_fft(s).  They depend on s alone, so they are
        computed on the first call and read from the table by every later
        sweep."""
        with self._coef_lock:
            coef = self._coef.get(s)
        if coef is None:
            alpha = self.params.alpha
            p_s = kernel_t(s, self.r_grid, 2, alpha)
            mass = khat[0] @ self.cell_w[:, 0]   # frequency 0 sums the angles
            scale, offset = _resolution_blend(self.r_grid, s, alpha,
                                              1.0 - pi * self.r_min ** 2 * p_s, mass)
            with self._coef_lock:
                coef = self._coef.setdefault(s, (scale, offset, p_s))
        return coef

    def _convolve(self, s: float, G: np.ndarray, q: float) -> np.ndarray:
        """int p(s, z, w) G(w) dw with the resolution blend and inner ring.

        G lives on the grid; below r_min it is continued per angle as the
        power law a^{-q} carried by the first radial circle.
        """
        khat = self._kernel_fft(s)
        scale, offset, p_s = self._coefficients(s, khat)
        out = scale[:, None] * self._apply(khat, G)
        out += offset[:, None] * G
        # inner disc, with the kernel frozen at its value at distance |z|
        ring = self.w_theta * float(np.sum(G[0]))
        out += (p_s * _ring_in(self.r_min, self.r_grid[0], ring, q))[:, None]
        return out

    # -- first perturbation term --------------------------------------------

    def first_term(self) -> np.ndarray:
        """p_1 on the (tau, r, theta) grid, via both closed-form factors."""
        if len(self._terms) == 1:
            self._terms.append(self._time_integral(self._first_node, self.v_rule))
            self._coef.clear()   # no sweep reads p_1's times
        return self._terms[1]

    def _first_node(self, s: float, sp: float) -> np.ndarray:
        """int p(s, z, w) |w|^{-alpha} p(sp, w, y) dw on the grid, subtracted
        around the peak of the narrower factor."""
        alpha, ry = self.params.alpha, self.ry
        rinv = self.r_grid[:, None] ** (-alpha)
        if s <= sp:
            # outer kernel peaked at z: subtract around z
            return self._convolve(s, rinv * self._free_at_y(sp), alpha)
        # free factor peaked at y: subtract around y
        py = self._free_at_y(sp)
        massY = float(np.sum(self.cell_w * py))
        scaleY, offsetY = _resolution_blend(ry, sp, alpha, 1.0, massY)
        I = self._apply(self._kernel_fft(s), scaleY * py * rinv)
        fy = kernel_t(s, self.dist_y, 2, alpha) * ry ** (-alpha)
        I += offsetY * fy
        # inner disc of the w-integral (|w|^{-alpha} singular ring), with
        # p(sp, w, y) frozen at p(sp, |y|)
        ring = 2.0 * pi * self.r_grid[0] ** (-alpha) * kernel_t(sp, ry, 2, alpha)
        I += (kernel_t(s, self.r_grid, 2, alpha)
              * _ring_in(self.r_min, self.r_grid[0], ring, alpha))[:, None]
        return I

    # -- Duhamel sweeps ------------------------------------------------------

    def _interp_time(self, V: np.ndarray, t_target: float) -> np.ndarray:
        """V at an off-grid time, log-log linear; V ~ tau below the grid."""
        tau = self.tau
        if t_target <= tau[0]:
            return V[0] * (t_target / tau[0])
        if t_target >= tau[-1]:
            return V[-1]
        i = int(np.searchsorted(tau, t_target)) - 1
        f = log(t_target / tau[i]) / log(tau[i + 1] / tau[i])
        logV = np.log(np.maximum(V[i:i + 2], 1e-300))
        return np.exp((1.0 - f) * logV[0] + f * logV[1])

    def _time_integral(self, node, rule) -> np.ndarray:
        """_duhamel_sum at every grid time tau, stacked along the first axis.

        The times are independent: they run on the worker pool, and each is
        summed as on one thread, so the result has the same bits for any
        number of workers."""
        kappa, tau = self.params.kappa, self.tau
        return np.stack(list(ordered_map(
            lambda k: _duhamel_sum(kappa, tau[k], node, rule), len(tau), workers())))

    def apply_duhamel(self, V: np.ndarray) -> np.ndarray:
        """One application of the perturbation operator to V(tau, r, theta)."""
        alpha = self.params.alpha
        rinv = self.r_grid[:, None] ** (-alpha)
        q = alpha + self._slope_in
        return self._time_integral(
            lambda s, sp: self._convolve(s, rinv * self._interp_time(V, sp), q),
            self.v_rule_lean)

    # -- series / fixed point ------------------------------------------------

    def term(self, n: int) -> np.ndarray:
        """Grid series term p_n (cached)."""
        if n >= 1:
            self.first_term()
        while len(self._terms) <= n:
            self._terms.append(self.apply_duhamel(self._terms[-1]))
        return self._terms[n]

    def fixed_point(self):
        """(V, converged, n_iter): iterate V <- p_1 + K V to stall (cached).

        The convergence norm is the relative sup norm against the running
        total p_0 + V, which tracks the natural p H H weight.
        """
        if self._fp is not None:
            return self._fp
        tol, mx = self.cfg.rel_tol, self.cfg.max_terms
        p1 = self.first_term()
        V = p1.copy()
        V_prev = None
        for it in range(mx):
            Vn = p1 + self.apply_duhamel(V)
            if not np.all(np.isfinite(Vn)):
                raise DivergenceError("fixed-point iteration diverged")
            change = np.max(np.abs(Vn - V) / (self._p0 + np.abs(Vn) + 1e-300))
            if change < tol:
                self._fp = (Vn, True, it + 1)
                return self._fp
            if V_prev is not None and (it + 1) % 5 == 0:
                # pointwise Aitken jump; the next sweep re-enters the
                # contraction, so an imperfect jump is self-correcting
                d1 = V - V_prev
                d2 = Vn - V
                den = d2 - d1
                safe = np.abs(den) > 1e-10 * (np.abs(Vn) + 1e-300)
                jump = Vn - np.where(safe, d2 * d2 / np.where(safe, den, 1.0), 0.0)
                V_prev, V = Vn, np.maximum(jump, 0.0)
            else:
                V_prev, V = V, Vn
        self._fp = (V, False, mx)
        return self._fp

    # -- evaluation ----------------------------------------------------------

    def slice_of(self, values: np.ndarray, converged: bool) -> KernelSlice:
        """The grid array values (radius, angle) as a slice of this grid."""
        return KernelSlice(self.r_grid, self.theta, self.w_theta, self.cell_w,
                           self.y_angle, self.r_min, self._slope_in, values, converged)

    def slice(self) -> KernelSlice:
        """p_tilde(t, ., y) = p_0 + V at the horizon, from the fixed point."""
        V, ok, _ = self.fixed_point()
        return self.slice_of(self._p0[-1] + V[-1], ok)

    def correction(self) -> KernelSlice:
        """V(t, ., y) = p_tilde - p_0 at the horizon, from the fixed point."""
        V, ok, _ = self.fixed_point()
        return self.slice_of(V[-1], ok)

    def value_at(self, x) -> KernelValue:
        """p_tilde(t, x, y) from the fixed point; the error is 5 times
        larger when it has not converged."""
        U = self.slice()
        val = float(U.read(x))
        err = max(self.cfg.rel_tol, 2e-2) * val
        return KernelValue(val, err if U.converged else 5.0 * err, Method.FIXED_POINT)


# ---------------------------------------------------------------------------
# Module-level operations (thin wrappers over the pointwise engine)


def _cached(cache: dict, capacity: int, key, build):
    """The value cached under key, built on a miss; the oldest entry is
    evicted once the cache holds capacity entries."""
    if key not in cache:
        if len(cache) >= capacity:
            cache.pop(next(iter(cache)))
        cache[key] = build()
    return cache[key]


_ENGINE_CACHE: dict = {}
_ENGINE_CACHE_MAX = 9
_RADIAL_CACHE: dict = {}
_RADIAL_CACHE_MAX = 10


def get_planar_engine(params: ModelParams, t: float, y,
                      cfg: QuadratureConfig = QuadratureConfig()) -> PlanarKernelEngine:
    """Pointwise engine centered at y, cached across wrapper calls."""
    y = _as_point(y)
    key = (params, float(t), float(y[0]), float(y[1]), cfg)
    return _cached(_ENGINE_CACHE, _ENGINE_CACHE_MAX, key,
                   lambda: PlanarKernelEngine(params, t, y, cfg))


def get_radial_engine(params: ModelParams, beta: float,
                      cfg: QuadratureConfig = QuadratureConfig()) -> RadialWeightedEngine:
    """Weighted-mass engine for (params, beta), cached across calls."""
    key = (params, float(beta), cfg)
    return _cached(_RADIAL_CACHE, _RADIAL_CACHE_MAX, key,
                   lambda: RadialWeightedEngine(params, beta, cfg))


def tilde_p(t: float, x, y, params: ModelParams,
            cfg: QuadratureConfig = QuadratureConfig()) -> SeriesState:
    """Partial sums of the perturbed kernel at (t, x, y).

    Stops once the increments decay geometrically with quotient below one and
    the geometric tail estimate is below rel_tol of the partial sum, or at
    max_terms (converged = False, expected at the critical coupling).  The
    reported tail_bound is the weighted-integral bound kappa^{N+1} /
    kappa_star^{N+2}-type tail at beta = (d - alpha)/2, infinite at critical.
    """
    params.require_finite_kernel("tilde_p")
    if not 0.0 < t < np.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    x, y = _as_point(x), _as_point(y)
    d, alpha, kappa = params.d, params.alpha, params.kappa
    p0 = free_kernel(t, x - y, d, alpha).value
    terms = [p0]
    if kappa == 0.0:
        return SeriesState(terms=terms, tail_bound=0.0, converged=True)
    eng = get_planar_engine(params, t, y, cfg)
    converged = False
    for n in range(1, cfg.max_terms + 1):
        terms.append(float(eng.slice_of(eng.term(n)[-1], True).read(x)))
        if n >= 3:
            q = abs(terms[-1]) / max(abs(terms[-2]), 1e-300)
            partial = float(np.sum(terms))
            if q < 1.0 and q / (1.0 - q) * abs(terms[-1]) < cfg.rel_tol * abs(partial):
                converged = True
                break
    beta = (d - alpha) / 2.0
    ks = kappa_of_beta(d, alpha, beta)
    rx = max(float(np.hypot(x[0], x[1])), 1e-300)
    if kappa < ks:
        n_used = len(terms) - 1
        tail = (kappa / ks) ** (n_used + 1) * rx ** (-beta) / (ks - kappa)
    else:
        tail = float("inf")
    return SeriesState(terms=terms, tail_bound=tail, converged=converged)


def tilde_p_fixed_point(t: float, x, y_grid, params: ModelParams) -> list:
    """Perturbed kernel at (t, x, y) for every y in y_grid, fixed-point route.

    One engine is centered at x; the kernel's symmetry turns each requested y
    into a grid read of the same converged iterate.
    """
    params.require_finite_kernel("the fixed point")
    x = _as_point(x)
    eng = get_planar_engine(params, t, x)
    return [eng.value_at(y) for y in y_grid]


def duhamel_residual(t: float, x, y, p_tilde_eval, params: ModelParams) -> float:
    """Relative defect of the second Duhamel form at (t, x, y).

    Checks |p_tilde - p - kappa int_0^t int p_tilde(s,x,z) |z|^{-alpha}
    p(t-s,z,y) dz ds| / p_tilde with a quadrature independent of the sweep
    that produced p_tilde.  The evaluator must be a pointwise engine centered
    at x with horizon t; the free-kernel part of p_tilde integrates to the
    first series term exactly, so only the smooth remainder V = p_tilde - p
    is integrated numerically.
    """
    if not isinstance(p_tilde_eval, PlanarKernelEngine):
        raise DomainError("duhamel_residual needs a pointwise engine evaluator")
    eng = p_tilde_eval
    x, y = _as_point(x), _as_point(y)
    turn = (float(np.arctan2(x[1], x[0])) - eng.y_angle + pi) % (2.0 * pi) - pi
    if (abs(float(np.hypot(x[0], x[1])) - eng.ry) > 1e-12 * max(1.0, eng.ry)
            or abs(turn) > 1e-12):
        raise DomainError("the evaluator must be centered at x")
    if abs(t - eng.tau[-1]) > 1e-12 * t:
        raise DomainError("the evaluator horizon must equal t")
    alpha, kappa = params.alpha, params.kappa
    dxy = float(np.hypot(x[0] - y[0], x[1] - y[1]))
    p0_xy = kernel_t(t, dxy, 2, alpha)
    Vt = eng.correction().require_converged()
    v_xy = float(Vt.read(y))
    p1_xy = float(eng.slice_of(eng.first_term()[-1], True).read(y))
    ptilde = p0_xy + v_xy
    if kappa == 0.0:
        return abs(v_xy - p1_xy) / ptilde
    # geometry of the grid relative to the requested y
    V = eng.fixed_point()[0]
    r = eng.r_grid
    ry = float(np.hypot(y[0], y[1]))
    th_global = eng.theta + eng.y_angle
    th_y = float(np.arctan2(y[1], y[0]))
    dz_y = np.sqrt(np.maximum(
        r[:, None] ** 2 + ry ** 2
        - 2.0 * r[:, None] * ry * np.cos(th_global[None, :] - th_y), 0.0))
    rinv = r[:, None] ** (-alpha)
    q_in = alpha + eng._slope_in

    def node(s: float, sp: float) -> float:
        Vs = replace(Vt, values=eng._interp_time(V, s))
        G = Vs.values * rinv
        P = kernel_t(sp, dz_y, 2, alpha)
        mass = float(np.sum(eng.cell_w * P))
        # resolution blend around the kernel peak at z = y
        scale, offset = _resolution_blend(ry, sp, alpha, 1.0, mass)
        g_y = float(Vs.read(y)) * max(ry, 1e-300) ** (-alpha)
        I = float(np.sum(eng.cell_w * P * G)) * scale
        I += offset * g_y
        # inner disc: continue V |z|^{-alpha} inward as a power law, kernel
        # frozen at distance |y|
        ring = eng.w_theta * float(np.sum(G[0]))
        return I + kernel_t(sp, ry, 2, alpha) * _ring_in(eng.r_min, r[0], ring, q_in)

    J = _duhamel_sum(kappa, t, node, eng.v_rule)
    return abs(v_xy - p1_xy - J) / ptilde
