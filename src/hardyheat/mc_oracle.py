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
from .params import ModelParams, Regime, kappa_of_beta

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
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps}")


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


def subordinator_increments(rng: np.random.Generator, n: int, h: float,
                            a: float) -> np.ndarray:
    """One-sided a-stable increments with Laplace transform exp(-h lambda^a).

    Kanter's representation: with U uniform on (0, pi) and E standard
    exponential,  S = (A(U)/E)^{(1-a)/a},  A(U) = [sin(aU)^a sin((1-a)U)^{1-a}
    / sin(U)]^{1/(1-a)}; the step size enters by strict stability.
    """
    if not (0.0 < a < 1.0):
        raise DomainError(f"subordinator index must lie in (0, 1), got {a}")
    u = rng.uniform(0.0, np.pi, size=n)
    e = rng.standard_exponential(size=n)
    log_A = (a * np.log(np.sin(a * u)) + (1.0 - a) * np.log(np.sin((1.0 - a) * u))
             - np.log(np.sin(u))) / (1.0 - a)
    s = np.exp((1.0 - a) / a * (log_A - np.log(e)))
    return h ** (1.0 / a) * s


def stable_increments(rng: np.random.Generator, n: int, d: int, h: float,
                      alpha: float) -> np.ndarray:
    """Isotropic stable increments with characteristic function exp(-h |xi|^alpha).

    Subordinated Brownian motion: X = sqrt(2 S) Z with S an (alpha/2)-stable
    subordinator increment and Z standard Gaussian in R^d.
    """
    s = subordinator_increments(rng, n, h, alpha / 2.0)
    z = rng.standard_normal(size=(n, d))
    return np.sqrt(2.0 * s)[:, None] * z


def _radius(x: np.ndarray) -> np.ndarray:
    """|x| of each row, summed column by column: the bits of
    np.sqrt(np.sum(x * x, axis=1)) in a fraction of its time."""
    sq = x[:, 0] * x[:, 0]
    for k in range(1, x.shape[1]):
        sq += x[:, k] * x[:, k]
    return np.sqrt(sq)


def _step(rng: np.random.Generator, x: np.ndarray, r0: np.ndarray, h: float,
          alpha: float):
    """One unsplit step of the paths x at radii r0 (floored at 1e-300): (new
    positions, trapezoid of |X|^{-alpha} over the step)."""
    xn = x + stable_increments(rng, len(x), x.shape[1], h, alpha)
    r1 = np.maximum(_radius(xn), 1e-300)
    return xn, 0.5 * h * (r0 ** -alpha + r1 ** -alpha)


def _advance(rng: np.random.Generator, x: np.ndarray, h: float, level: int,
             alpha: float):
    """Advance all paths by time h; returns (new positions, functional increment).

    The increment approximates int_0^h |X_s|^{-alpha} ds by the trapezoid
    rule; the step is recursively halved while the path sits inside
    _SUBSTEP_RADIUS, where the integrand is steep.  Halving stops once the
    step already resolves the local scale (h below a quarter of r^alpha, the
    time over which the process moves a distance r), which bounds the depth
    for paths merely hovering near the boundary of the sub-step region.
    """
    r = np.maximum(_radius(x), 1e-300)
    split = ((r < _SUBSTEP_RADIUS) & (level < _MAX_SUBSTEP_LEVELS)
             & (h > 0.25 * r ** alpha))
    if not split.any():
        return _step(rng, x, r, h, alpha)
    out = np.empty_like(x)
    a_inc = np.empty(len(x))
    xs, a1 = _advance(rng, x[split], 0.5 * h, level + 1, alpha)
    xs, a2 = _advance(rng, xs, 0.5 * h, level + 1, alpha)
    out[split] = xs
    a_inc[split] = a1 + a2
    keep = ~split
    if keep.any():
        out[keep], a_inc[keep] = _step(rng, x[keep], r[keep], h, alpha)
    return out, a_inc


def _run_paths(x, t: float, params: ModelParams, cfg: McConfig,
               record_weight_exponent: float | None = None):
    """Simulate all paths; returns (X_t, A_t, time_integral or None).

    When record_weight_exponent = gamma is given, also accumulates the
    per-path trapezoid of exp(kappa A_s) |X_s|^{-gamma} over the base grid.
    """
    d, alpha = params.d, params.alpha
    x0 = np.asarray(x, dtype=float).reshape(1, d)
    rng = make_rng(cfg.seed)
    X = np.repeat(x0, cfg.n_paths, axis=0)
    A = np.zeros(cfg.n_paths)
    h = t / cfg.n_steps
    log_cap = log(_WEIGHT_CAP)
    ti = None
    if record_weight_exponent is not None:
        g = record_weight_exponent
        prev = np.full(cfg.n_paths, float(np.linalg.norm(x0)) ** -g)
        ti = np.zeros(cfg.n_paths)
    for _ in range(cfg.n_steps):
        X, inc = _advance(rng, X, h, 0, alpha)
        A += inc
        if ti is not None:
            r = np.maximum(_radius(X), 1e-300)
            cur = np.exp(np.minimum(params.kappa * A, log_cap)) * r ** -g
            ti += 0.5 * h * (prev + cur)
            prev = cur
    return X, A, ti


def _capped_payoff(X: np.ndarray, A: np.ndarray, beta: float,
                   params: ModelParams) -> tuple:
    """(exp(kappa A)|X|^{-beta} with the weight truncated at _WEIGHT_CAP,
    the mask of capped paths)."""
    log_cap = log(_WEIGHT_CAP)
    expo = params.kappa * A
    r = np.maximum(_radius(X), 1e-300)
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
    X, A, _ = _run_paths(x, t, params, cfg)
    return _estimate(*_capped_payoff(X, A, beta, params))


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
    X, A, ti = _run_paths(x, t, params, cfg,
                          record_weight_exponent=beta + alpha)
    lhs, capped = _capped_payoff(X, A, beta, params)
    rx = float(np.linalg.norm(np.asarray(x, dtype=float)))
    return _estimate(lhs - rx ** -beta - (params.kappa - kb) * ti, capped)


def _check_fk_args(x, t: float, beta: float, params: ModelParams) -> None:
    if params.regime is Regime.SUPERCRITICAL:
        raise DomainError("Feynman-Kac weights diverge for supercritical couplings")
    if not 0.0 < t < np.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    if not (0.0 <= beta < params.d - params.alpha):
        raise DomainError(f"beta must lie in [0, d - alpha), got {beta}")
    rx = float(np.linalg.norm(np.asarray(x, dtype=float)))
    if rx <= 0.0:
        raise DomainError("the start point must be nonzero")
