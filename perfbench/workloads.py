"""The three workloads, each a list of operations on the package's public API.

An operation calls into the program and then applies one check from
``checks`` to the numbers it returned.  It returns ``(ok, defect)``.
All workloads use d = 2.  Operations share only the engines that the program
caches and, in ``critical``, the one engine that the workload builds.
"""

from __future__ import annotations

from functools import partial
from math import pi

import numpy as np
from scipy.optimize import curve_fit

from hardyheat import duhamel, forms, mc_oracle, params, stable_kernel, verifier

import checks

D = 2

# The critical workload runs the planar engine on a coarser grid than the
# default QuadratureConfig (8 time levels instead of 16, 2 radial panels per
# decade instead of 3).  At the default grid one fixed point takes ~97 s,
# which alone would use most of the time a full comparison of two commits
# may take.  The coarse grid keeps the 17 sweeps of the critical fixed point
# and passes every check below with margin (residual 3.2e-4, exponent
# 0.507 against 0.5).
CRITICAL_GRID = {"time_subdivisions": 8, "radial_per_decade": 2}

# bounds_scan's grid around y0 = (1, 0) and its origin-exponent fit window
SCAN_RADII = np.geomspace(1e-3, 1e2, 11)
SCAN_ANGLES = (0.0, pi / 2.0, pi)
FIT_RADII = np.geomspace(2e-3, 3e-2, 6)

MC_PATHS = 50_000
MC_STEPS = 100


def _model(d: int, alpha: float, frac_of_critical: float):
    return params.ModelParams.from_kappa(
        d, alpha, frac_of_critical * params.kappa_star(d, alpha))


# ---------------------------------------------------------------------------
# weighted: radial-engine assembly, no planar engine and no Monte Carlo


def _supermedian(p, radius: float):
    res = verifier.check_supermedian(1.0, (radius, 0.0), p)
    return checks.supermedian(res.details["quadrature"], radius ** -p.delta)


def _invariance(p, beta: float):
    res = verifier.check_invariance(beta, 1.0, (1.0, 0.0), p)
    return checks.invariance(res.details["lhs"], res.details["rhs"])


def weighted(seed: int) -> list:
    crit = _model(D, 1.0, 1.0)
    ops = [(f"supermedian alpha=1 kappa* |x|={r:g}",
            partial(_supermedian, crit, r)) for r in (0.1, 1.0, 10.0)]
    ops.append(("invariance alpha=1 kappa* beta=0.25delta",
                partial(_invariance, crit, 0.25 * crit.delta)))
    ops += [(f"supermedian alpha=1.5 kappa=0.5kappa* |x|={r:g}",
             partial(_supermedian, _model(D, 1.5, 0.5), r))
            for r in (0.1, 1.0)]
    return ops


# ---------------------------------------------------------------------------
# critical: the planar engine at kappa*


class _Critical:
    """One planar engine at kappa*, t = 1, centred at y0 = (1, 0)."""

    def __init__(self):
        self.p = _model(D, 1.0, 1.0)
        self.cfg = duhamel.QuadratureConfig(**CRITICAL_GRID)
        self.y0 = (1.0, 0.0)
        self.eng = None
        self._scan = self._ray = None

    def engine(self):
        if self.eng is None:
            self.eng = duhamel.PlanarKernelEngine(self.p, 1.0, self.y0, self.cfg)
            self.eng.first_term()
            self.eng.fixed_point()
        return self.eng

    def scan(self):
        """(p~, p, ratio) at the scan points, y0 itself left out."""
        if self._scan is None:
            self._scan = self._read_scan()
        return self._scan

    def _read_scan(self):
        eng, p = self.engine(), self.p
        hy = verifier.H_weight(1.0, 1.0, p.delta, p.alpha)
        out = []
        for r in SCAN_RADII:
            for a in SCAN_ANGLES:
                x = (r * np.cos(a), r * np.sin(a))
                dist = float(np.hypot(x[0] - self.y0[0], x[1] - self.y0[1]))
                if dist < 1e-6:
                    continue
                val = eng.value_at(x).value
                free = float(stable_kernel.kernel_t(1.0, dist, D, p.alpha))
                hx = verifier.H_weight(1.0, r, p.delta, p.alpha)
                out.append((val, free, val / (free * hx * hy)))
        return out

    def ray(self):
        """(p~, p) on the ray away from y0, inside the fit window."""
        if self._ray is None:
            eng = self.engine()
            vals = [eng.value_at((-r, 0.0)).value for r in FIT_RADII]
            free = stable_kernel.kernel_t(1.0, 1.0 + FIT_RADII, D, self.p.alpha)
            self._ray = (np.array(vals), free)
        return self._ray

    def dominates(self):
        scan = self.scan()
        vals, free = self.ray()
        return checks.dominates_free([s[0] for s in scan] + list(vals),
                                     [s[1] for s in scan] + list(free))

    def ratios(self):
        return checks.ratios_positive([s[2] for s in self.scan()])

    def exponent(self):
        # the model c (r^{-s} + 1) of bounds_scan, after dividing out the
        # free kernel's variation along the ray
        vals, free = self.ray()
        log_r, log_v = np.log(FIT_RADII), np.log(vals / free)

        def model(lr, log_c, s):
            return log_c + np.log(np.exp(lr) ** -s + 1.0)

        popt, _ = curve_fit(model, log_r, log_v, p0=(0.0, self.p.delta))
        return checks.origin_exponent(float(popt[1]), self.p.delta)

    def residual(self):
        res = duhamel.duhamel_residual(1.0, self.y0, (-1.0, 0.0),
                                       self.engine(), self.p)
        return checks.duhamel_residual(res)


def critical(seed: int) -> list:
    c = _Critical()
    return [("p~ >= p at every read point", c.dominates),
            ("p~/(pHH) finite and positive", c.ratios),
            ("origin exponent", c.exponent),
            ("duhamel residual at y=(-1,0)", c.residual)]


# ---------------------------------------------------------------------------
# oracles: Monte Carlo and quadratic forms, no engine


def _mc(seed: int, stream: int) -> mc_oracle.McConfig:
    return mc_oracle.McConfig(n_paths=MC_PATHS, n_steps=MC_STEPS,
                              seed=seed * 16 + stream)


def _fk_free(cfg):
    p = _model(D, 1.0, 0.0)
    beta = 0.5
    est = mc_oracle.feynman_kac((1.0, 0.0), 1.0, beta, p, cfg)
    ref = stable_kernel.weighted_mass(1.0, 1.0, beta, D, 1.0).value
    return checks.mc_two_sided(est.mean, est.std_error, ref)


def _fk_invariance(cfg):
    p = params.ModelParams.from_kappa(D, 1.0, 0.1)
    est = mc_oracle.fk_invariance_defect((1.0, 0.0), 1.0, 0.25 * p.delta, p, cfg)
    return checks.mc_two_sided(est.mean, est.std_error, 0.0)


def _fk_weighted(cfg, p, radius: float, upper_only: bool):
    est = mc_oracle.feynman_kac((radius, 0.0), 1.0, p.delta, p, cfg)
    check = checks.mc_upper if upper_only else checks.mc_two_sided
    return check(est.mean, est.std_error, radius ** -p.delta)


def _hardy(f, p):
    res = forms.check_hardy(f, p)
    return checks.hardy(res.details["energy"], res.details["weighted_mass_side"])


def _form_identity(f, p):
    res = forms.check_form_identity(f, p)
    d = res.details
    return checks.form_identity(d["bar_energy"], d["energy"], d["potential_term"])


def _gaussian_energy(p, route: str):
    g = forms.TestFunction(kind="gaussian", center=(0.0, 0.0), scale=1.0)
    return checks.gaussian_energy(forms.energy(g, p, route=route).value)


def _gaps(p):
    return checks.gaps_decreasing(forms.near_optimizer_gaps((2, 4, 8), p))


def oracles(seed: int) -> list:
    light = params.ModelParams.from_kappa(D, 1.0, 0.1)
    crit = _model(D, 1.0, 1.0)
    ops = [("fk kappa=0 vs weighted_mass", partial(_fk_free, _mc(seed, 0))),
           ("fk invariance defect kappa=0.1",
            partial(_fk_invariance, _mc(seed, 1)))]
    stream = 2
    for p, upper, tag in ((light, False, "kappa=0.1"), (crit, True, "kappa*")):
        for r in (0.1, 1.0, 10.0):
            ops.append((f"fk {tag} |x|={r:g}",
                        partial(_fk_weighted, _mc(seed, stream), p, r, upper)))
            stream += 1
    corpus = forms.load_corpus()
    for i, f in enumerate(corpus):
        ops.append((f"hardy corpus[{i}]", partial(_hardy, f, crit)))
        for p, tag in ((crit, "kappa*"), (light, "kappa=0.1")):
            ops.append((f"form identity corpus[{i}] {tag}",
                        partial(_form_identity, f, p)))
    for route in ("fourier_side", "direct_double"):
        ops.append((f"gaussian energy {route}",
                    partial(_gaussian_energy, crit, route)))
    ops.append(("near-optimizer gaps", partial(_gaps, crit)))
    return ops


WORKLOADS = {"weighted": weighted, "critical": critical, "oracles": oracles}
