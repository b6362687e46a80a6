"""End-to-end acceptance criteria.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured figures, bypassing output capture so the line is visible
in a normal pytest run.
"""

import json
import time

import numpy as np
import pytest

from hardyheat.duhamel import (
    QuadratureConfig,
    tilde_p,
    tilde_p_fixed_point,
)
from hardyheat.errors import DomainError
from hardyheat.forms import (
    TestFunction,
    check_form_identity,
    check_hardy,
    energy,
    load_corpus,
    near_optimizer_gaps,
)
from hardyheat.mc_oracle import McConfig, feynman_kac
from hardyheat.params import ModelParams, kappa_curve, kappa_of_beta, kappa_star
from hardyheat.stable_kernel import (
    _hankel_quadrature,
    _small_r_series,
    _tail_series,
    cauchy_unit_density,
    levy_constant,
    levy_symbol,
    log_identity_residual,
    sphere_area,
    time_integrated_mass,
    unit_density_grid,
    weighted_mass,
)
from hardyheat.verifier import blowup_probe, bounds_scan, check_invariance, \
    check_H_supermedian, check_supermedian

pytestmark = pytest.mark.acceptance

KS2 = kappa_star(2, 1.0)


@pytest.fixture()
def report(capsys):
    def emit(criterion: int, ok: bool, detail: str) -> None:
        line = "CRITERION %2d: %s  (%s)" % (criterion,
                                            "PASS" if ok else "FAIL", detail)
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


def test_criterion_01_constants(report):
    t0 = time.time()
    e1 = abs(kappa_star(3, 1.0) - 2.0 / np.pi)
    e2 = abs(kappa_of_beta(3, 1.0, 0.5) - 0.5)
    ok = e1 <= 1e-12 and e2 <= 1e-12
    # symmetry / monotonicity suite of the curve
    for d, alpha in [(2, 1.0), (3, 1.0), (3, 1.5)]:
        w = d - alpha
        for frac in (0.1, 0.25, 0.4):
            b = frac * w
            ok &= abs(kappa_of_beta(d, alpha, b)
                      - kappa_of_beta(d, alpha, w - b)) < 1e-12
        table = kappa_curve(d, alpha, 41)
        lower = table[: 21, 1]
        ok &= bool(np.all(np.diff(lower) > 0))
        ok &= abs(table[20, 1] - kappa_star(d, alpha)) < 1e-12
    rt = time.time() - t0
    ok &= rt < 1.0
    report(1, ok, "gamma-constant errors %.1e / %.1e, runtime %.2fs"
           % (e1, e2, rt))


def test_criterion_02_free_kernel(report):
    t0 = time.time()
    worst = 0.0
    for r in np.geomspace(1e-2, 1e2, 50):
        res = _tail_series(float(r), 2, 1.0, 1e-10) \
            or _small_r_series(float(r), 2, 1.0, 1e-10) \
            or _hankel_quadrature(float(r), 2, 1.0)
        worst = max(worst, abs(res[0] / cauchy_unit_density(float(r), 2) - 1))
    ok = worst <= 1e-8
    # normalization by radial quadrature plus the exact tail
    from hardyheat.quadrature import log_panel_nodes
    xs, ws = log_panel_nodes(1e-8, 1e6, n_per_panel=16, per_decade=3)
    mass = sphere_area(2) * float(np.sum(
        ws * xs * unit_density_grid(xs, 2, 1.0)))
    mass += sphere_area(2) * levy_constant(2, 1.0) * 1e-6
    norm_err = abs(mass - 1.0)
    ok &= norm_err <= 1e-8
    sym_err = max(abs(levy_symbol(xi, 2, 1.0) / xi - 1.0)
                  for xi in (0.3, 1.0, 2.0, 7.0, 31.0))
    ok &= sym_err <= 1e-6
    rt = time.time() - t0
    ok &= rt < 30.0
    report(2, ok, "route mismatch %.1e, normalization %.1e, symbol %.1e, "
           "runtime %.1fs" % (worst, norm_err, sym_err, rt))


@pytest.mark.slow
def test_criterion_03_weighted_invariance_two_routes(report):
    # The Monte Carlo comparison is two-sided at the light coupling, where
    # the payoff exp(kappa A_t)|X_t|^{-delta} has finite variance.  At the
    # critical coupling its second moment is the same integral at coupling
    # 2 kappa*, which is supercritical, so the variance is infinite and the
    # sample standard error understates the spread; every bias of the
    # estimator (weight capping, finite-sample tail truncation) points
    # down, so the upper-sided test remains valid there.
    t0 = time.time()
    ok = True
    worst_q, worst_z = 0.0, 0.0
    for frac in (0.1, 1.0):
        params = ModelParams.from_kappa(2, 1.0, frac * KS2)
        for rx in (0.1, 1.0, 10.0):
            res = check_supermedian(1.0, (rx, 0.0), params)
            worst_q = max(worst_q, res.defect)
            ok &= res.defect < 5e-3
            est = feynman_kac((rx, 0.0), 1.0, params.delta, params,
                              McConfig(n_paths=100_000, seed=2))
            z = (est.mean - rx ** -params.delta) / est.std_error
            if frac < 1.0:
                worst_z = max(worst_z, abs(z))
                ok &= abs(z) <= 3.0
            else:
                worst_z = max(worst_z, z)
                ok &= z <= 3.0
    rt = time.time() - t0
    ok &= rt < 300.0
    report(3, ok, "worst quadrature defect %.2e, worst MC z %.2f "
           "(one-sided at the critical coupling), runtime %.0fs"
           % (worst_q, worst_z, rt))


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason=(
    "a two-sided 3-sigma Monte Carlo test at the critical coupling is "
    "statistically unsound: the payoff's second moment is the weighted "
    "integral at coupling 2 kappa*, which is supercritical, so the variance "
    "is infinite, the sample standard error understates the spread, and the "
    "finite-sample mean is biased low near the origin (measured z in "
    "[-6.8, +1.1] over ten seeds at |x| = 0.1 with 1e5 paths)"))
def test_criterion_03_two_sided_mc_at_critical_coupling():
    params = ModelParams.from_kappa(2, 1.0, KS2)
    worst = 0.0
    for rx in (0.1, 1.0, 10.0):
        est = feynman_kac((rx, 0.0), 1.0, params.delta, params,
                          McConfig(n_paths=100_000, seed=2))
        worst = max(worst, abs(est.mean - rx ** -params.delta)
                    / est.std_error)
    assert worst <= 3.0


@pytest.mark.slow
def test_criterion_04_invariance_with_coupling_correction(report):
    t0 = time.time()
    params = ModelParams.from_kappa(2, 1.0, 0.1)
    worst = 0.0
    ok = True
    for beta in (0.25 * params.delta, 1.5 * params.delta):
        res = check_invariance(beta, 1.0, (1.0, 0.0), params)
        worst = max(worst, res.defect)
        ok &= res.defect < 1e-2
    rt = time.time() - t0
    ok &= rt < 300.0
    report(4, ok, "worst defect %.2e, runtime %.0fs" % (worst, rt))


def test_criterion_05_free_kernel_identities(report):
    t0 = time.time()
    worst = 0.0
    for (t, r, b) in [(1.0, 1.0, 0.3), (0.5, 2.0, 0.5), (2.0, 0.3, 0.25)]:
        lhs = weighted_mass(t, r, b, 2, 1.0).value
        rhs = r ** -b - kappa_of_beta(2, 1.0, b) \
            * time_integrated_mass(t, r, b + 1.0, 2, 1.0)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    for (t, r) in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.3)]:
        worst = max(worst, abs(log_identity_residual(t, (r, 0.0), 2, 1.0)))
    rt = time.time() - t0
    ok = worst < 1e-4 and rt < 60.0
    report(5, ok, "worst residual %.1e, runtime %.0fs" % (worst, rt))


@pytest.mark.slow
def test_criterion_06_supermedian_suites(report):
    t0 = time.time()
    params = ModelParams.from_kappa(2, 1.0, 0.1)
    ok = True
    # never above the invariant weight beyond three times the stated error
    for (t, rx) in [(1.0, 0.3), (1.0, 1.0), (1.0, 3.0), (4.0, 1.0),
                    (0.25, 1.0)]:
        res = check_supermedian(t, (rx, 0.0), params)
        ok &= res.status == "pass"
        lhs, target = res.details["quadrature"], res.details["target"]
        ok &= lhs <= target * (1.0 + 3.0 * res.tolerance)
    # empirical constant stable under grid refinement
    base = check_H_supermedian(1.0, (1.0, 0.0), params)
    fine = check_H_supermedian(1.0, (1.0, 0.0), params,
                               QuadratureConfig().refined(1.25))
    m0, m1 = base.details["empirical_M"], fine.details["empirical_M"]
    drift = abs(m1 - m0) / abs(m0)
    ok &= base.status == "pass" and fine.status == "pass"
    ok &= drift < 0.10
    rt = time.time() - t0
    report(6, ok, "empirical M %.3f, refinement drift %.2e, runtime %.0fs"
           % (m0, drift, rt))


@pytest.mark.slow
def test_criterion_07_two_sided_bounds(report):
    t0 = time.time()
    ok = True
    pieces = []
    for frac in (1.0, 0.5):
        params = ModelParams.from_kappa(2, 1.0, frac * KS2)
        rep = bounds_scan(params)
        finite = np.isfinite(rep.c_lower) and np.isfinite(rep.c_upper) \
            and rep.c_lower > 0.0
        ok &= finite
        ok &= rep.refinement_drift < 0.10
        miss = abs(rep.slope - rep.slope_target)
        ok &= miss <= 0.02
        pieces.append("kappa=%.2f*: c=[%.3f,%.3f] drift %.3f slope %+.4f "
                      "(target %+.4f)" % (frac, rep.c_lower, rep.c_upper,
                                          rep.refinement_drift, rep.slope,
                                          rep.slope_target))
    rt = time.time() - t0
    ok &= rt < 900.0
    report(7, ok, "; ".join(pieces) + "; runtime %.0fs" % rt)


@pytest.mark.slow
def test_criterion_08_scaling(report):
    t0 = time.time()
    params = ModelParams.from_kappa(2, 1.0, 0.1)
    rng = np.random.default_rng(4)
    tt = 2.0
    lam = tt ** (1.0 / params.alpha)
    ys = []
    while len(ys) < 20:
        y = rng.uniform(-3.0, 3.0, size=2)
        if np.hypot(*y) > 0.05 and np.hypot(y[0] - 1.0, y[1]) > 0.05:
            ys.append(tuple(y))
    big = tilde_p_fixed_point(tt, (1.0, 0.0), ys, params)
    small = tilde_p_fixed_point(1.0, (1.0 / lam, 0.0),
                                [(y[0] / lam, y[1] / lam) for y in ys], params)
    worst = 0.0
    ok = True
    for a, b in zip(big, small):
        rhs = tt ** (-params.d / params.alpha) * b.value
        dev = abs(a.value - rhs) / rhs
        tol = max(1e-3, 3.0 * (a.abs_error
                               + tt ** (-params.d / params.alpha)
                               * b.abs_error) / rhs)
        worst = max(worst, dev)
        ok &= dev <= tol
    rt = time.time() - t0
    report(8, ok, "20 points, worst relative deviation %.2e, runtime %.0fs"
           % (worst, rt))


@pytest.fixture(scope="module")
def blowup_reports():
    sup = blowup_probe(1.0, (1.0, 0.0),
                       ModelParams.from_kappa(2, 1.0, 1.05 * KS2))
    sub = blowup_probe(1.0, (1.0, 0.0),
                       ModelParams.from_kappa(2, 1.0, 0.95 * KS2))
    return sup, sub


@pytest.mark.slow
def test_criterion_09_blowup_trichotomy(report, blowup_reports):
    t0 = time.time()
    sup, sub = blowup_reports
    ok = sup.diverged and sup.s_over_reference > 1e3 \
        and len(sup.last_ratios) == 5 and min(sup.last_ratios) > 1.0
    ok &= sub.converged and max(sub.last_ratios) < 1.0
    try:
        blowup_probe(1.0, (1.0, 0.0),
                     ModelParams.from_kappa(2, 1.0, KS2))
        guarded = False
    except DomainError:
        guarded = True
    ok &= guarded
    rt = time.time() - t0
    report(9, ok, "supercritical S/ref %.0f ratios>%.3f, subcritical "
           "ratios<%.3f, critical guarded, runtime %.0fs"
           % (sup.s_over_reference, min(sup.last_ratios),
              max(sub.last_ratios), rt))


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason=(
    "the divergent-series increment ratio tends to the coupling ratio 1.05 "
    "monotonically from below (the iterated kernel is positivity-preserving, "
    "so the Rayleigh quotients increase to the spectral radius); a finite "
    "partial sum therefore never shows ratios above 1.05, even though the "
    "sum itself passes 1000x the reference"))
def test_criterion_09_increment_ratio_exceeds_coupling_ratio(blowup_reports):
    sup, _ = blowup_reports
    assert min(sup.last_ratios) > 1.05


@pytest.mark.slow
def test_criterion_10_forms(report):
    t0 = time.time()
    crit = ModelParams.from_kappa(2, 1.0, KS2)
    sub = ModelParams.from_kappa(2, 1.0, 0.1)
    gauss = TestFunction(kind="gaussian", center=(0.0, 0.0), scale=1.0)
    target = np.pi ** 1.5 / 2.0
    e_four = energy(gauss, crit, route="fourier_side").value
    e_dir = energy(gauss, crit, route="direct_double").value
    ok = abs(e_four / target - 1) < 1e-4 and abs(e_dir / target - 1) < 1e-4
    worst_gap, worst_id = float("inf"), 0.0
    for f in load_corpus():
        h = check_hardy(f, crit)
        ok &= h.status == "pass"
        worst_gap = min(worst_gap, h.details["gap"] / h.details["energy"])
        for params in (crit, sub):
            ident = check_form_identity(f, params)
            ok &= ident.status == "pass" and ident.defect < 1e-3
            worst_id = max(worst_id, ident.defect)
    gaps = near_optimizer_gaps((2, 4, 8), crit)
    ok &= gaps[0] > gaps[1] > gaps[2] > 0.0
    rt = time.time() - t0
    ok &= rt < 600.0
    report(10, ok, "two-route energy ok, min normalized gap %.1e, worst "
           "identity defect %.1e, optimizer gaps %s, runtime %.0fs"
           % (worst_gap, worst_id,
              "/".join("%.3f" % g for g in gaps), rt))


def test_criterion_11_determinism(report, tmp_path):
    from click.testing import CliRunner
    from hardyheat.cli import main as cli_main

    t0 = time.time()
    runner = CliRunner()
    cases = [
        ["kappa", "--curve", "25"],
        ["kernel", "--t", "1", "--x", "1,0", "--y", "-1,0"],
        ["mc", "--kappa", "0.1", "--t", "1", "--x", "1,0", "--beta", "0.5",
         "--paths", "4000", "--steps", "40", "--seed", "11"],
        ["series", "--kappa", "0", "--t", "1", "--x", "1,0", "--y", "-1,0"],
    ]
    ok = True
    for i, args in enumerate(cases):
        pa, pb = tmp_path / ("a%d" % i), tmp_path / ("b%d" % i)
        ra = runner.invoke(cli_main, args + ["--output", str(pa)])
        rb = runner.invoke(cli_main, args + ["--output", str(pb)])
        ok &= ra.exit_code == 0 and rb.exit_code == 0
        ok &= pa.read_bytes() == pb.read_bytes()
    # JSON payloads carry the schema tag and no wall-clock fields
    doc = json.loads((tmp_path / "a1").read_text())
    ok &= doc.get("schema") == 1 and "runtime" not in doc
    rt = time.time() - t0
    report(11, ok, "%d command pairs byte-identical, runtime %.0fs"
           % (len(cases), rt))
