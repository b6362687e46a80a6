"""Feynman-Kac Monte Carlo estimates of weighted integrals of the perturbed
kernel, by simulation of the isotropic alpha-stable process:

    int p_tilde(t, x, y) |y|^{-beta} dy
        = E_x[ exp(kappa int_0^t |X_s|^{-alpha} ds) |X_t|^{-beta} ].

The driving increments are exact in law (subordinated Brownian motion with a
one-sided stable subordinator, Kanter's representation), so all discretization
bias sits in the trapezoid rule for the additive functional; that rule is
recursively sub-stepped near the origin where |X|^{-alpha} is singular.

Pointwise kernel values are deliberately not estimated (no bridge sampling);
only integrals against test weights are, which is what the oracle role needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log

import numpy as np

from .errors import DomainError, ReliabilityError
from .params import ModelParams, kappa_of_beta

_MAX_SUBSTEP_LEVELS = 12
_SUBSTEP_RADIUS = 0.1      # steps are halved for paths inside this radius
_WEIGHT_CAP = exp(20.0)    # weights exp(kappa A) above it are truncated


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run parameters."""

    n_paths: int = 10_000
    n_steps: int = 100
    seed: int = 12345

    def __post_init__(self):
        for name in ("n_paths", "n_steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps}")
        if not 0 <= self.seed < 2 ** 63:
            raise DomainError(f"seed must lie in [0, 2**63), got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its uncertainty and reliability diagnostics."""

    mean: float
    std_error: float
    ess: float
    capped_fraction: float


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed on (seed, 0)."""
    return np.random.Generator(np.random.Philox(key=(seed, 0)))


def _check_index(a: float) -> None:
    if not (0.0 < a < 1.0):
        raise DomainError(f"subordinator index must lie in (0, 1), got {a}")


def _kanter(u: np.ndarray, e: np.ndarray, h: float, a: float, tmp: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """h^{1/a} (A(U)/E)^{(1-a)/a} into out, overwriting u, e and tmp."""
    b = 1.0 - a
    np.multiply(u, a, out=out)
    np.sin(out, out=out)
    np.log(out, out=out)
    out *= a
    if b == a:          # alpha = 1: both sine factors are the same array
        out += out
    else:
        np.multiply(u, b, out=tmp)
        np.sin(tmp, out=tmp)
        np.log(tmp, out=tmp)
        tmp *= b
        out += tmp
    np.sin(u, out=u)
    np.log(u, out=u)
    out -= u
    out /= b
    out -= np.log(e, out=e)
    out *= b / a
    np.exp(out, out=out)
    out *= h ** (1.0 / a)
    return out


def subordinator_increments(rng: np.random.Generator, n: int, h: float,
                            a: float) -> np.ndarray:
    """One-sided a-stable increments with Laplace transform exp(-h lambda^a).

    Kanter's representation: with U uniform on (0, pi) and E standard
    exponential,  S = (A(U)/E)^{(1-a)/a},  A(U) = [sin(aU)^a sin((1-a)U)^{1-a}
    / sin(U)]^{1/(1-a)}; the step size enters by strict stability.
    """
    _check_index(a)
    u = rng.uniform(0.0, np.pi, size=n)
    e = rng.standard_exponential(size=n)
    return _kanter(u, e, h, a, np.empty(n), np.empty(n))


class _Workspace:
    """Arrays for the n paths of one run in d dimensions.  Every step and
    sub-step uses their leading entries, so a run allocates them once."""

    def __init__(self, n: int, d: int):
        self.u, self.e, self.tmp, self.scale, self.power = (np.empty(n) for _ in range(5))
        self.z, self.dx = np.empty(n * d), np.empty(n * d)


def stable_increments(rng: np.random.Generator, n: int, d: int, h: float,
                      alpha: float, work: _Workspace | None = None) -> np.ndarray:
    """Isotropic stable increments with characteristic function exp(-h |xi|^alpha).

    Subordinated Brownian motion: X = sqrt(2 S) Z with S an (alpha/2)-stable
    subordinator increment and Z standard Gaussian in R^d.  The generator
    draws U and E of S, then Z.  The result lives in work (a workspace of
    one run, valid until its next step) when given.
    """
    a = alpha / 2.0
    _check_index(a)
    if work is None:
        work = _Workspace(n, d)
    u, e, tmp, scale = work.u[:n], work.e[:n], work.tmp[:n], work.scale[:n]
    z = work.z[:n * d].reshape(n, d)
    rng.random(out=u)
    u *= np.pi                      # the bits of rng.uniform(0, pi)
    rng.standard_exponential(out=e)
    s = _kanter(u, e, h, a, tmp, scale)
    s *= 2.0
    np.sqrt(s, out=s)               # sqrt(2 S)
    rng.standard_normal(out=z)
    z *= s[:, None]
    return z


def _radius(x: np.ndarray, out: np.ndarray | None = None,
            squares: np.ndarray | None = None) -> np.ndarray:
    """|x| of each row, summed column by column: the bits of
    np.sqrt(np.sum(x * x, axis=1)) in a fraction of its time.  out and
    squares, of the shapes of |x| and x, take the result and the squares."""
    sq = np.multiply(x, x, out=squares)
    r = np.empty(len(x)) if out is None else out
    r[:] = sq[:, 0]
    for k in range(1, x.shape[1]):
        r += sq[:, k]
    return np.sqrt(r, out=r)


def _split_mask(r: np.ndarray, h: float, level: int, alpha: float):
    """The paths whose step is halved, or None: those inside _SUBSTEP_RADIUS
    whose step h exceeds a quarter of r^alpha, the time over which the
    process moves a distance r, above the deepest level."""
    if level >= _MAX_SUBSTEP_LEVELS:
        return None
    near = np.flatnonzero(r < _SUBSTEP_RADIUS)
    deep = near[h > 0.25 * r[near] ** alpha]
    if not deep.size:
        return None
    split = np.zeros(len(r), dtype=bool)
    split[deep] = True
    return split


def _advance(rng: np.random.Generator, work: _Workspace, x: np.ndarray,
             r: np.ndarray, ra: np.ndarray, h: float, level: int, alpha: float,
             inc: np.ndarray) -> None:
    """Advance the paths x by time h in place, with their radii r (floored at
    1e-300) and ra = r^{-alpha}, which carry over from the step before; the
    functional increment of each path goes into inc.

    The increment approximates int_0^h |X_s|^{-alpha} ds by the trapezoid
    rule; the step is recursively halved while the path sits inside
    _SUBSTEP_RADIUS, where the integrand is steep.  Halving stops once the
    step already resolves the local scale (h below a quarter of r^alpha),
    which bounds the depth for paths merely hovering near the boundary of
    the sub-step region.  The split paths draw first, then the others.
    """
    m, d = x.shape
    split = _split_mask(r, h, level, alpha)
    if split is None:
        dx = stable_increments(rng, m, d, h, alpha, work)
    else:
        xs, rs, ras = (np.compress(split, v, axis=0) for v in (x, r, ra))
        a1, a2 = np.empty(len(rs)), np.empty(len(rs))
        _advance(rng, work, xs, rs, ras, 0.5 * h, level + 1, alpha, a1)
        _advance(rng, work, xs, rs, ras, 0.5 * h, level + 1, alpha, a2)
        keep = ~split
        dx = work.dx[:m * d].reshape(m, d)
        dx[split] = 0.0
        if len(rs) < m:
            z = stable_increments(rng, m - len(rs), d, h, alpha, work)
            for k in range(d):      # 1-d scatters: faster than 2-d row masks
                dx[:, k][keep] = z[:, k]
    x += dx
    if split is not None:
        for k in range(d):
            x[:, k][split] = xs[:, k]
    # r and ra of the split paths come out as rs and ras: the same numbers
    np.maximum(_radius(x, r, dx), 1e-300, out=r)
    ra_end = np.power(r, -alpha, out=work.power[:m])
    np.add(ra, ra_end, out=inc)
    inc *= 0.5 * h
    ra[:] = ra_end
    if split is not None:
        inc[split] = a1 + a2


def _run_paths(x, t: float, params: ModelParams, cfg: McConfig,
               record_weight_exponent: float | None = None):
    """Simulate all paths; returns (|X_t| floored at 1e-300, A_t,
    time_integral or None).

    When record_weight_exponent = gamma is given, also accumulates the
    per-path trapezoid of exp(kappa A_s) |X_s|^{-gamma} over the base grid.
    """
    d, alpha = params.d, params.alpha
    n = cfg.n_paths
    x0 = np.asarray(x, dtype=float).reshape(1, d)
    rng = make_rng(cfg.seed)
    X = np.repeat(x0, n, axis=0)
    r = np.maximum(_radius(X), 1e-300)
    ra = r ** -alpha
    A = np.zeros(n)
    inc = np.empty(n)
    h = t / cfg.n_steps
    log_cap = log(_WEIGHT_CAP)
    ti = None
    if record_weight_exponent is not None:
        g = record_weight_exponent
        prev = np.full(n, float(np.linalg.norm(x0)) ** -g)
        cur = np.empty(n)
        ti = np.zeros(n)
    work = _Workspace(n, d)
    for _ in range(cfg.n_steps):
        _advance(rng, work, X, r, ra, h, 0, alpha, inc)
        A += inc
        if ti is not None:
            np.multiply(A, params.kappa, out=cur)
            np.exp(np.minimum(cur, log_cap, out=cur), out=cur)
            cur *= np.power(r, -g, out=inc)   # inc is spent once in A
            prev += cur                 # ti += h/2 (prev + cur)
            prev *= 0.5 * h
            ti += prev
            prev, cur = cur, prev
    return r, A, ti


def _capped_payoff(r: np.ndarray, A: np.ndarray, beta: float,
                   params: ModelParams) -> tuple:
    """(exp(kappa A) r^{-beta} with the weight truncated at _WEIGHT_CAP,
    the mask of capped paths), r = |X| floored at 1e-300."""
    log_cap = log(_WEIGHT_CAP)
    expo = params.kappa * A
    return np.exp(np.minimum(expo, log_cap)) * r ** -beta, expo > log_cap


def _estimate(values: np.ndarray, capped: np.ndarray) -> McEstimate:
    """Mean, standard error and ESS of values; a capped fraction above 1%
    raises a reliability error."""
    n = len(values)
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    w = np.abs(values)
    denom = float(np.sum(w * w))
    ess = float(np.sum(w)) ** 2 / denom if denom > 0.0 else float(n)
    est = McEstimate(mean=mean, std_error=std_error, ess=ess,
                     capped_fraction=float(np.mean(capped)))
    if est.capped_fraction > 0.01:
        raise ReliabilityError(
            f"capped_fraction {est.capped_fraction:.3f} exceeds 1%; "
            "the estimate is biased low"
        )
    return est


def feynman_kac(x, t: float, beta: float, params: ModelParams,
                cfg: McConfig) -> McEstimate:
    """MC estimate of int p_tilde(t, x, y) |y|^{-beta} dy.

    Weights exp(kappa A_t) above _WEIGHT_CAP are truncated (biasing the
    estimate low); a capped fraction above 1% raises a reliability error.
    """
    _check_fk_args(x, t, beta, params)
    r, A, _ = _run_paths(x, t, params, cfg)
    return _estimate(*_capped_payoff(r, A, beta, params))


def fk_invariance_defect(x, t: float, beta: float, params: ModelParams,
                         cfg: McConfig) -> McEstimate:
    """MC defect of the weighted invariance identity.

    Estimates E[exp(kappa A_t)|X_t|^{-beta}] - |x|^{-beta}
    - (kappa - kappa_beta) int_0^t E[exp(kappa A_s)|X_s|^{-beta-alpha}] ds,
    whose mean is 0 when the identity holds.  The time integral runs along
    the same paths, so the defect variance benefits from the coupling.
    """
    _check_fk_args(x, t, beta, params)
    d, alpha = params.d, params.alpha
    if not (beta + alpha < d):
        raise DomainError(f"beta + alpha must be below d, got beta={beta}")
    kb = kappa_of_beta(d, alpha, beta)
    r, A, ti = _run_paths(x, t, params, cfg,
                          record_weight_exponent=beta + alpha)
    lhs, capped = _capped_payoff(r, A, beta, params)
    rx = float(np.linalg.norm(np.asarray(x, dtype=float)))
    return _estimate(lhs - rx ** -beta - (params.kappa - kb) * ti, capped)


def _check_fk_args(x, t: float, beta: float, params: ModelParams) -> None:
    params.require_finite_kernel("Feynman-Kac")
    if not 0.0 < t < np.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    if not (0.0 <= beta < params.d - params.alpha):
        raise DomainError(f"beta must lie in [0, d - alpha), got {beta}")
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"the start point must be a vector of numbers, got {x!r}") from None
    if x.shape != (params.d,):
        raise DomainError(f"the start point must have d = {params.d} coordinates, "
                          f"got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError(f"the start point must be finite, got {x}")
    if float(np.linalg.norm(x)) <= 0.0:
        raise DomainError("the start point must be nonzero")
