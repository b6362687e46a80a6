"""Model parameters and the Gamma-function constants of the coupling curve.

Single source of truth for the coupling constant produced by a power weight
``|x|^{-beta}``, the critical coupling, the inverse map ``kappa -> delta`` and
the regime classification (subcritical / critical / supercritical).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import exp, isfinite

import numpy as np
from scipy.special import gammaln

from .errors import DomainError

# Relative tolerance used to flag a coupling as exactly critical.
CRITICAL_REL_TOL = 1e-12

# Bisection bracket floor and iteration cap for the delta solve.
_BISECT_EPS = 1e-14
_BISECT_MAX_ITER = 200


class Regime(Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


def _check_alpha(d: int, alpha: float) -> None:
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise DomainError(f"dimension must be a positive integer, got {d!r}")
    if not (0.0 < alpha < min(2.0, float(d))):
        raise DomainError(f"alpha must lie in (0, min(2, d)), got alpha={alpha}, d={d}")


def kappa_of_beta(d: int, alpha: float, beta: float) -> float:
    """Coupling constant of the weight ``|x|^{-beta}``.

    Computed as a ratio of four Gamma factors in the log domain.  Returns 0
    at beta = 0 by convention, and by the analytic limit as beta -> d - alpha.
    """
    _check_alpha(d, alpha)
    if not (0.0 <= beta < d - alpha):
        raise DomainError(f"beta must lie in [0, d - alpha), got beta={beta}")
    if beta == 0.0:
        return 0.0
    log_num = gammaln((beta + alpha) / 2.0) + gammaln((d - beta) / 2.0)
    log_den = gammaln(beta / 2.0) + gammaln((d - beta - alpha) / 2.0)
    return (2.0 ** alpha) * exp(log_num - log_den)


def kappa_star(d: int, alpha: float) -> float:
    """Critical coupling: the best constant in the fractional Hardy inequality."""
    _check_alpha(d, alpha)
    log_ratio = 2.0 * (gammaln((d + alpha) / 4.0) - gammaln((d - alpha) / 4.0))
    return (2.0 ** alpha) * exp(log_ratio)


def delta_of_kappa(d: int, alpha: float, kappa: float) -> float:
    """Unique exponent delta in [0, (d - alpha)/2] whose coupling equals kappa.

    Bisection on the strictly increasing branch of the coupling curve.
    """
    _check_alpha(d, alpha)
    ks = kappa_star(d, alpha)
    if not kappa >= 0.0:
        raise DomainError(f"kappa must be nonnegative, got {kappa}")
    if kappa > ks * (1.0 + CRITICAL_REL_TOL):
        raise DomainError(
            f"kappa={kappa} exceeds the critical value {ks}; no exponent delta exists"
        )
    if kappa == 0.0:
        return 0.0
    hi = (d - alpha) / 2.0
    if kappa >= ks:
        return hi
    lo = _BISECT_EPS
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if kappa_of_beta(d, alpha, mid) < kappa:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_EPS * max(1.0, hi):
            break
    delta = 0.5 * (lo + hi)
    if abs(kappa_of_beta(d, alpha, delta) - kappa) > 1e-12 * max(1.0, ks):
        raise DomainError(f"delta solve failed to converge for kappa={kappa}")
    return delta


def classify(d: int, alpha: float, kappa: float) -> Regime:
    """Three-way regime tag for the coupling."""
    _check_alpha(d, alpha)
    if kappa < 0.0:
        raise DomainError(f"kappa must be nonnegative, got {kappa}")
    ks = kappa_star(d, alpha)
    if abs(kappa - ks) <= CRITICAL_REL_TOL * ks:
        return Regime.CRITICAL
    return Regime.SUPERCRITICAL if kappa > ks else Regime.SUBCRITICAL


@dataclass(frozen=True)
class ModelParams:
    """Global parameter set: dimension, stability index, coupling and its exponent."""

    d: int
    alpha: float
    kappa: float
    delta: float
    regime: Regime

    def __post_init__(self):
        _check_alpha(self.d, self.alpha)
        if not isfinite(self.kappa) or self.kappa < 0.0:
            raise DomainError(f"kappa must be finite and nonnegative, got {self.kappa}")

    @classmethod
    def from_kappa(cls, d: int, alpha: float, kappa: float) -> "ModelParams":
        regime = classify(d, alpha, kappa)
        if regime is Regime.SUPERCRITICAL:
            delta = float("nan")
        elif regime is Regime.CRITICAL:
            delta = (d - alpha) / 2.0
        else:
            delta = delta_of_kappa(d, alpha, kappa)
        return cls(d=d, alpha=alpha, kappa=kappa, delta=delta, regime=regime)

    @classmethod
    def from_delta(cls, d: int, alpha: float, delta: float) -> "ModelParams":
        _check_alpha(d, alpha)
        if not (0.0 <= delta <= (d - alpha) / 2.0):
            raise DomainError(f"delta must lie in [0, (d - alpha)/2], got {delta}")
        kappa = kappa_of_beta(d, alpha, delta)
        return cls(d=d, alpha=alpha, kappa=kappa, delta=delta, regime=classify(d, alpha, kappa))

    @property
    def is_supercritical(self) -> bool:
        return self.regime is Regime.SUPERCRITICAL


def kappa_curve(d: int, alpha: float, n_points: int) -> np.ndarray:
    """Table of (beta, kappa_beta) over the open interval (0, d - alpha).

    Endpoints are included with kappa = 0; the maximum sits at the midpoint.
    """
    _check_alpha(d, alpha)
    if n_points < 3:
        raise DomainError(f"n_points must be >= 3, got {n_points}")
    betas = np.linspace(0.0, d - alpha, n_points)
    kappas = np.empty_like(betas)
    kappas[0] = 0.0
    kappas[-1] = 0.0
    for i, b in enumerate(betas[1:-1], start=1):
        kappas[i] = kappa_of_beta(d, alpha, float(b))
    return np.column_stack([betas, kappas])
