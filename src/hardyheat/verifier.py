"""Identity and bound suites for the perturbed kernel.

Every check measures a defect against an independently computed reference:
Chapman-Kolmogorov by grid convolution of two engine runs, the supermedian
and invariance identities by the weighted-mass engine, the two-sided
comparability estimate by a pointwise grid scan, and supercritical blow-up
by iterating the series operator on a deep radial grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import log, pi

import numpy as np
from scipy.optimize import curve_fit

from .errors import DomainError
from .params import ModelParams, Regime, kappa_of_beta
from .quadrature import log_panel_nodes
from .duhamel import (
    KernelSlice,
    QuadratureConfig,
    get_planar_engine,
    get_radial_engine,
    time_integrated_profile,
)
from .results import CheckResult, make_result
from .stable_kernel import kernel_t, radius

# the comparability scan's radii and angles around y0 = (1, 0), and times
_SCAN_Y0 = (1.0, 0.0)
_SCAN_RADII = np.geomspace(1e-3, 1e2, 11)
_SCAN_ANGLES = np.asarray([0.0, pi / 2.0, pi])
_SCAN_TIMES = (0.25, 1.0, 4.0)
_PROBE_MAX_TERMS = 4000   # most series terms the blow-up probe sums


@dataclass(frozen=True)
class RatioReport:
    """Comparability-constant scan of the two-sided kernel estimate."""

    t_values: tuple
    radii: tuple
    angles: tuple
    ratios: dict           # t -> 2-d array (radius, angle) of p~/(p H H)
    c_lower: float
    c_upper: float
    refinement_drift: float
    slope: float
    slope_target: float


@dataclass(frozen=True)
class BlowupReport:
    """Evidence record of the series probe at one coupling."""

    kappa: float
    regime: str
    n_terms: int
    s_over_reference: float
    last_ratios: tuple
    diverged: bool
    converged: bool


def H_weight(t: float, radius, delta: float, alpha: float):
    """The comparability weight H(t, x) = t^{delta/alpha}|x|^{-delta} + 1."""
    radius = np.asarray(radius, dtype=float)
    return t ** (delta / alpha) * radius ** (-delta) + 1.0


# ---------------------------------------------------------------------------
# Chapman-Kolmogorov


def _free_convolution(s: float, t: float, x, y, d: int, alpha: float) -> float:
    """int p(s,x,z) p(t,z,y) dz by polar quadrature around y (d = 2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r, w = log_panel_nodes(1e-4, 1e3, n_per_panel=8, per_decade=5)
    n_th = 128
    th = 2.0 * pi * np.arange(n_th) / n_th
    z = _polar_points(r, th, y)
    dx = np.hypot(z[..., 0] - x[0], z[..., 1] - x[1])
    vals = kernel_t(s, dx, d, alpha) * kernel_t(t, r, d, alpha)[:, None]
    return float(np.sum((w * r)[:, None] * vals) * (2.0 * pi / n_th))


def check_chapman_kolmogorov(s: float, t: float, x, y,
                             params: ModelParams) -> CheckResult:
    """Relative defect of int p~(s,x,z) p~(t,z,y) dz = p~(s+t,x,y)."""
    if params.regime is Regime.SUPERCRITICAL:
        raise DomainError("Chapman-Kolmogorov requires a finite kernel")
    if params.d != 2:
        raise DomainError("Chapman-Kolmogorov is checked in d = 2 only")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if params.kappa == 0.0:
        lhs = _free_convolution(s, t, x, y, params.d, params.alpha)
        rhs = kernel_t(s + t, float(np.hypot(*(x - y))), params.d, params.alpha)
        defect = abs(lhs - rhs) / rhs
        return make_result("chapman_kolmogorov", defect, 1e-6, lhs=lhs, rhs=rhs)
    Va = get_planar_engine(params, t, y).correction().require_converged()
    Vb = get_planar_engine(params, s, x).correction().require_converged()

    # split p~ = p0 + V on both sides: the p0*p0 term is the free semigroup
    # in closed form, each p0*V cross term is integrated on a polar grid
    # centered at its kernel peak, and only the smooth V*V term uses the
    # origin-refined engine grid
    lhs = kernel_t(s + t, float(np.hypot(*(x - y))), params.d, params.alpha)
    lhs += _peaked_cross(t, y, Vb, params)
    lhs += _peaked_cross(s, x, Va, params)
    # V*V on the grid centred at y, with V(s, x, z) read off the grid centred
    # at x by symmetry; inside r_min both behave like |z|^{-delta}
    Vb_on_a = Vb.read(_polar_points(Va.r_grid, Va.theta + Va.y_angle))
    lhs += Va.integrate(Vb_on_a, Va.slope_in + Vb.slope_in)
    Uc = get_planar_engine(params, s + t, y).slice().require_converged()
    rhs = float(Uc.read(x))
    defect = abs(lhs - rhs) / rhs
    return make_result("chapman_kolmogorov", defect, 1e-2, lhs=lhs, rhs=rhs)


def _polar_points(r, th, center=(0.0, 0.0)) -> np.ndarray:
    """Points center + r (cos th, sin th) on the (r, th) grid, shape (nr, nth, 2)."""
    return np.stack([center[0] + r[:, None] * np.cos(th)[None, :],
                     center[1] + r[:, None] * np.sin(th)[None, :]], axis=-1)


def _peaked_cross(t_free: float, c_free, V_slice: KernelSlice,
                  params: ModelParams) -> float:
    """int p0(t_free, z - c_free) V(z) dz on a peak-centered polar grid.

    The free factor peaks at z = c_free with width t_free^{1/alpha}; the
    Duhamel correction V is read off the engine grid by interpolation and is
    smooth away from the origin, so the grid needs an extra refinement ring
    only around z = 0 (where V ~ |z|^{-delta}).
    """
    c_free = np.asarray(c_free, dtype=float)
    w_scale = t_free ** (1.0 / params.alpha)
    r, w = log_panel_nodes(1e-3 * w_scale, 3e2 * w_scale,
                           n_per_panel=6, per_decade=4)
    n_th = 48
    th = 2.0 * pi * np.arange(n_th) / n_th
    z = _polar_points(r, th, c_free)
    rad = np.hypot(z[..., 0], z[..., 1])
    p0 = kernel_t(t_free, r, params.d, params.alpha)
    V = V_slice.read(z)
    total = float(np.sum((w * r * p0)[:, None] * V) * (2.0 * pi / n_th))
    # origin refinement: V ~ |z|^{-delta} is not resolved by the peak grid
    # when the origin sits off-center, so add a local patch minus the coarse
    # grid's own estimate of the same disc
    r_org = float(np.hypot(*c_free))
    if r_org > 0.0:
        rc = 0.3 * r_org
        inside = rad < rc
        # remove the coarse contribution attributed to the origin disc
        coarse = float(np.sum(np.where(
            inside, (w * r * p0)[:, None] * V, 0.0)) * (2.0 * pi / n_th))
        rp, wp = log_panel_nodes(1e-6 * rc, rc, n_per_panel=6, per_decade=4)
        zp = _polar_points(rp, th)
        dfree = np.hypot(zp[..., 0] - c_free[0], zp[..., 1] - c_free[1])
        p0p = kernel_t(t_free, dfree, params.d, params.alpha)
        Vp = V_slice.read(zp)
        patch = float(np.sum((wp * rp)[:, None] * p0p * Vp)
                      * (2.0 * pi / n_th))
        total += patch - coarse
    return total


# ---------------------------------------------------------------------------
# Supermedian / invariance identities


def check_supermedian(t: float, x, params: ModelParams) -> CheckResult:
    """Equality int p~(t,x,y)|y|^{-delta} dy = |x|^{-delta} (and never above),
    by the weighted-mass engine."""
    if params.regime is Regime.SUPERCRITICAL:
        raise DomainError("supermedian checks require a finite kernel")
    rx = radius(x)
    delta = params.delta
    eng = get_radial_engine(params, delta)
    F = eng.evaluator()
    lhs = float(F(t, rx))
    target = rx ** -delta
    defect = abs(lhs - target) / target
    tol = 5e-3
    details = {"quadrature": lhs, "target": target}
    # the one-sided (supermedian) inequality with the quadrature error margin
    violated = lhs > target * (1.0 + 3.0 * tol)
    res = make_result("supermedian_equality", defect, tol, **details)
    if violated and res.status == "pass":
        res = replace(res, status="fail")
    return res


def check_H_supermedian(t: float, x, params: ModelParams,
                        cfg: QuadratureConfig = QuadratureConfig()) -> CheckResult:
    """int p~(t,x,y) H(t,y) dy <= (M+1) H(t,x) with an empirical M.

    The ratio is scanned over a grid of radii (scaling reduces all t to 1).
    It is also bounded below by 1: F_0 >= 1 because p~ >= p, and
    F_delta = |x|^{-delta} by the supermedian identity.  The check passes
    when the scan is finite and its minimum is at most the supermedian
    tolerance below 1, which two inconsistent engines can miss.
    """
    if params.regime is Regime.SUPERCRITICAL:
        raise DomainError("supermedian checks require a finite kernel")
    alpha, delta = params.alpha, params.delta
    rx = radius(x)
    eng_0 = get_radial_engine(params, 0.0, cfg)
    F0 = eng_0.evaluator()
    Fd = get_radial_engine(params, delta, cfg).evaluator() \
        if delta > 0.0 else F0

    def ratio(tt: float, rr) -> np.ndarray:
        num = F0(tt, rr) + tt ** (delta / alpha) * Fd(tt, rr)
        return num / H_weight(tt, rr, delta, alpha)

    radii = np.geomspace(1e-2, 1e2, 25)
    grid_ratio = ratio(1.0, radii)
    m_plus_1 = float(np.max(grid_ratio))
    grid_min = float(np.min(grid_ratio))
    r1 = float(ratio(t, np.array([rx]))[0])
    defect = max(0.0, 1.0 - grid_min) if np.isfinite(m_plus_1) else np.inf
    return make_result("H_supermedian", defect, 5e-3,
                       empirical_M=m_plus_1 - 1.0, ratio_at_x=r1,
                       grid_max=m_plus_1, grid_min=grid_min)


def check_invariance(beta: float, t: float, x,
                     params: ModelParams) -> CheckResult:
    """Defect of the weighted invariance identity with the coupling correction.

    LHS = int p~(t,x,y)|y|^{-beta} dy; RHS = |x|^{-beta}
    + (kappa - kappa_beta) int_0^t int p~(s,x,y)|y|^{-beta-alpha} dy ds.
    """
    if params.regime is Regime.SUPERCRITICAL:
        raise DomainError("invariance checks require a finite kernel")
    d, alpha = params.d, params.alpha
    if not (0.0 <= beta < d - alpha):
        raise DomainError(f"beta must lie in [0, d - alpha), got {beta}")
    rx = radius(x)
    kb = kappa_of_beta(d, alpha, beta)
    lhs = float(get_radial_engine(params, beta).evaluator()(t, rx))
    ti = time_integrated_profile(get_radial_engine(params, beta + alpha), t, rx)
    rhs = rx ** -beta + (params.kappa - kb) * ti
    defect = abs(lhs - rhs) / abs(rhs)
    return make_result("invariance", defect, 1e-2, lhs=lhs, rhs=rhs,
                       beta=beta, kappa_beta=kb)


# ---------------------------------------------------------------------------
# Two-sided estimate scan


def _scan_ratios(params: ModelParams, U: KernelSlice, t: float) -> np.ndarray:
    """p~/(p H H) at time t on the scan's (radius, angle) grid around y0.

    The t = 1 kernel U = p~(1, ., y0) is read at x and mapped by exact
    scaling to (t, lam x, lam y0) with lam = t^{1/alpha}; points at y0 are
    NaN.
    """
    d, alpha, delta = params.d, params.alpha, params.delta
    lam = t ** (1.0 / alpha)
    y0 = _SCAN_Y0
    hy = float(H_weight(t, lam * np.hypot(*y0), delta, alpha))
    x = _polar_points(_SCAN_RADII, _SCAN_ANGLES)
    dist = lam * np.hypot(x[..., 0] - y0[0], x[..., 1] - y0[1])
    val = U.read(x) * t ** (-d / alpha)
    p = kernel_t(t, dist, d, alpha)
    hx = H_weight(t, lam * _SCAN_RADII, delta, alpha)[:, None]
    return np.where(dist < 1e-6 * lam, np.nan, val / (p * hx * hy))


def bounds_scan(params: ModelParams, refine_factor: float = 1.25) -> RatioReport:
    """Comparability scan of p~ against p H(t,x) H(t,y) around y0 = (1, 0).

    t != 1 grids are produced by the exact scaling map (a consistency check
    of the reduction, not new information); the refinement drift compares
    c_upper/c_lower against a run with all grid densities scaled up.
    """
    if params.regime is Regime.SUPERCRITICAL:
        raise DomainError("the two-sided estimate requires a finite kernel")
    U = get_planar_engine(params, 1.0, _SCAN_Y0).slice().require_converged()
    ratios = {t: _scan_ratios(params, U, t) for t in _SCAN_TIMES}
    alpha, delta = params.alpha, params.delta
    c_lower = float(np.nanmin(ratios[1.0]))
    c_upper = float(np.nanmax(ratios[1.0]))
    fine_eng = get_planar_engine(params, 1.0, _SCAN_Y0,
                                 QuadratureConfig().refined(refine_factor))
    fine = _scan_ratios(params, fine_eng.slice().require_converged(), 1.0)
    drift = max(abs(float(np.nanmax(fine)) - c_upper) / c_upper,
                abs(float(np.nanmin(fine)) - c_lower) / c_lower)
    # |x|^{-delta} slope fit at small radii, along the axis away from y0.
    # The raw kernel carries two known finite-radius factors that tilt a
    # plain log-log fit: the free-kernel variation along the ray (divided
    # out exactly) and the additive part of the comparability weight
    # r^{-delta} + 1 (modeled when the window can identify it, i.e. when
    # r^{-delta} varies appreciably across the window).
    fit_r = np.geomspace(2e-3, 3e-2, 6)
    vals = U.read(np.stack([-fit_r, np.zeros_like(fit_r)], axis=-1))
    p_ray = kernel_t(1.0, 1.0 + fit_r, params.d, alpha)
    log_r, log_v = np.log(fit_r), np.log(vals / p_ray)
    span = float(log_r[-1] - log_r[0])
    if delta * span >= 1.0:
        def h_model(lr, log_c, s):
            return log_c + np.log(np.exp(lr) ** -s + 1.0)
        popt, _ = curve_fit(h_model, log_r, log_v, p0=(0.0, delta))
        slope = -float(popt[1])
    else:
        slope = float(np.polyfit(log_r, log_v, 1)[0])
    return RatioReport(t_values=_SCAN_TIMES, radii=tuple(_SCAN_RADII.tolist()),
                       angles=tuple(_SCAN_ANGLES.tolist()), ratios=ratios,
                       c_lower=c_lower, c_upper=c_upper,
                       refinement_drift=float(drift), slope=slope,
                       slope_target=-delta)


# ---------------------------------------------------------------------------
# Blow-up probe


def blowup_probe(t: float, x, params: ModelParams) -> BlowupReport:
    """Partial-sum divergence probe of the perturbation series.

    The series is tracked through its weighted pairing against
    |y|^{-(d-alpha)/2} on a deep radial grid, where each term is one matrix
    application; S_N is compared against the free-kernel weighted mass (the
    n = 0 term).  Supercritical couplings must show S_N running past 1000x
    that reference with increment ratios above 1; subcritical couplings must
    show geometric decay.  At the critical coupling the probe refuses: the
    trichotomy is undecidable from finitely many terms there, and the
    fixed-point evaluator is the right tool.
    """
    if params.regime is Regime.CRITICAL:
        raise DomainError(
            "the probe is undecidable at the critical coupling; "
            "use the fixed-point evaluator instead"
        )
    beta = (params.d - params.alpha) / 2.0
    eng = get_radial_engine(params, beta, QuadratureConfig(eps0=1e-10))
    rx = radius(x)
    rho = rx * t ** (-1.0 / params.alpha)   # scaling reduction to t = 1
    i = int(np.argmin(np.abs(np.log(eng.r_grid) - log(rho))))
    K = eng.operator
    phi = eng.phi0.copy()
    ref = float(eng.phi0[i])
    log_scale = 0.0
    S = 0.0
    vals = []
    for _ in range(_PROBE_MAX_TERMS):
        vals.append(float(phi[i]) * np.exp(log_scale))
        S += vals[-1]
        if S > 2e3 * ref:
            break
        if len(vals) > 10 and vals[-1] < 1e-12 * S:
            break
        m = float(np.max(np.abs(phi)))
        if m > 1e100:
            log_scale += log(m)
            phi = phi / m
        phi = K @ phi
    last = [vals[k + 1] / vals[k] for k in range(max(0, len(vals) - 6), len(vals) - 1)]
    diverged = S > 1e3 * ref and len(last) == 5 and min(last) > 1.0
    converged = (not diverged) and len(vals) > 10 and vals[-1] < 1e-10 * S
    return BlowupReport(kappa=params.kappa, regime=params.regime.value,
                        n_terms=len(vals), s_over_reference=S / ref,
                        last_ratios=tuple(last), diverged=bool(diverged),
                        converged=bool(converged))


# ---------------------------------------------------------------------------
# Continuity diagnostic


def continuity_scan(params: ModelParams) -> CheckResult:
    """Warn-only scan of normalized jumps of p~ between adjacent grid cells.

    Jumps are normalized by the local bound p H H; on the nested coarse grid
    (every second node) the maximum jump must be larger than on the fine
    grid, as it is for any continuous function sampled at half the spacing.
    """
    if params.regime is Regime.SUPERCRITICAL:
        raise DomainError("continuity diagnostics require a finite kernel")
    U = get_planar_engine(params, 1.0, _SCAN_Y0).slice().require_converged()
    delta, alpha = params.delta, params.alpha
    r = U.r_grid
    hy = float(H_weight(1.0, 1.0, delta, alpha))
    # distances from the grid points to y0 = (1, 0)
    dist = np.sqrt(np.maximum(
        r[:, None] ** 2 + 1.0 - 2.0 * r[:, None] * np.cos(U.theta)[None, :], 0.0))
    bound = kernel_t(1.0, np.maximum(dist, 1e-6), params.d, alpha) \
        * H_weight(1.0, r, delta, alpha)[:, None] * hy
    norm = U.values / bound

    def max_jump(A: np.ndarray) -> float:
        dr = np.abs(np.diff(A, axis=0))
        dth = np.abs(A - np.roll(A, 1, axis=1))
        return float(max(dr.max(), dth.max()))

    fine = max_jump(norm)
    coarse = max_jump(norm[::2, ::2])
    defect = fine / max(coarse, 1e-300)
    return make_result("continuity", defect, 1.0, warn_only=True,
                       fine_jump=fine, coarse_jump=coarse)
