"""Acceptance checks of the benchmark, as pure functions of the program's numbers.

Each check returns ``(ok, defect)``.  ``defect`` is the relative deviation
from an exact or independently computed reference, and it feeds the
``max_rel_defect`` metric; it is ``None`` for checks of a property (a sign,
an order) and for Monte Carlo comparisons, whose deviation is draw noise.
"""

from __future__ import annotations

from math import isfinite, pi

SUPERMEDIAN_TOL = 5e-3      # weighted mass against the exact |x|^{-delta}
INVARIANCE_TOL = 1e-2       # invariance identity, two engines
RESIDUAL_TOL = 1e-3         # second Duhamel form, independent quadrature
EXPONENT_TOL = 0.02         # fitted origin exponent against delta
FORM_TOL = 1e-3             # ground-state form identity
HARDY_TOL = 1e-6            # Hardy inequality, relative to the energy
ENERGY_TOL = 1e-4           # Gaussian energy against pi^{3/2}/2
# Monte Carlo comparisons draw a new seed in every run.  The eight 3-sigma
# tests of one run (five two-sided, three one-sided) would fail by chance in
# about one run out of sixty; at 5 sigma the chance rate is 4e-6 per run.
MC_Z = 5.0

GAUSSIAN_ENERGY = pi ** 1.5 / 2.0   # d = 2, alpha = 1, unit scale


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def supermedian(value: float, target: float):
    """Weighted mass of p~ against |x|^{-delta}: equal within the tolerance."""
    defect = _rel(value, target)
    return defect <= SUPERMEDIAN_TOL, defect


def invariance(lhs: float, rhs: float):
    defect = _rel(lhs, rhs)
    return defect <= INVARIANCE_TOL, defect


def dominates_free(ptilde, p):
    """p~ >= p at every read point (the potential only adds mass)."""
    return all(a >= b for a, b in zip(ptilde, p)) and len(ptilde) == len(p), None


def ratios_positive(ratios):
    """Every comparability ratio p~ / (p H H) finite and positive."""
    return len(ratios) > 0 and all(isfinite(c) and c > 0.0 for c in ratios), None


def duhamel_residual(residual: float):
    return isfinite(residual) and residual < RESIDUAL_TOL, residual


def origin_exponent(slope: float, delta: float):
    """Fitted exponent s of c(|x|^{-s} + 1) against the exact delta."""
    miss = abs(slope - delta)
    return miss <= EXPONENT_TOL, miss / delta


def mc_two_sided(mean: float, std_error: float, ref: float):
    return abs(mean - ref) <= MC_Z * std_error, None


def mc_upper(mean: float, std_error: float, ref: float):
    """One-sided: every bias of the capped estimator points down."""
    return mean <= ref + MC_Z * std_error, None


def hardy(energy: float, weighted_side: float):
    """E[f] >= kappa* int f^2 |x|^{-alpha}, up to a relative 1e-6."""
    return energy - weighted_side >= -HARDY_TOL * energy, None


def form_identity(bar: float, energy: float, potential: float):
    defect = abs(bar - (energy - potential)) / max(energy, 1.0)
    return defect <= FORM_TOL, defect


def gaussian_energy(value: float):
    defect = _rel(value, GAUSSIAN_ENERGY)
    return defect <= ENERGY_TOL, defect


def gaps_decreasing(gaps):
    """Near-optimizer Hardy gaps: positive and strictly decreasing in n."""
    ok = len(gaps) >= 2 and gaps[-1] > 0.0 and all(
        a > b for a, b in zip(gaps, gaps[1:]))
    return ok, None
