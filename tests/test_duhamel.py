"""Perturbation series, fixed-point evaluator and the self-consistency residual."""

import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from hardyheat import duhamel, stable_kernel
from hardyheat.duhamel import (
    PlanarKernelEngine,
    QuadratureConfig,
    duhamel_residual,
    get_planar_engine,
    tilde_p,
    tilde_p_fixed_point,
)
from hardyheat.errors import DivergenceError, DomainError
from hardyheat.params import ModelParams, kappa_star
from hardyheat.quadrature import log_panel_nodes
from hardyheat.stable_kernel import angular_average, kernel_t

X, Y = (1.0, 0.0), (-1.0, 0.0)


def test_zero_coupling_is_free_kernel(ref_free):
    st = tilde_p(1.0, X, Y, ref_free)
    assert len(st.terms) == 1
    assert st.converged
    assert st.value == pytest.approx(0.014235250868343541, rel=1e-12)


def test_supercritical_rejected():
    p = ModelParams.from_kappa(2, 1.0, 1.5 * kappa_star(2, 1.0))
    with pytest.raises(DomainError):
        tilde_p(1.0, X, Y, p)
    with pytest.raises(DomainError):
        tilde_p_fixed_point(1.0, X, [Y], p)


@pytest.mark.slow
def test_series_terms_regression(ref_subcritical):
    # frozen leading terms at kappa = 0.1, t = 1, x = (1,0), y = (-1,0)
    st = tilde_p(1.0, X, Y, ref_subcritical)
    expected = [
        0.014235250868343541,
        0.0019602320384007306,
        0.00019138586193444474,
        2.1349997954087408e-05,
    ]
    assert st.converged
    for got, ref in zip(st.terms[:4], expected):
        assert got == pytest.approx(ref, rel=1e-6)
    # geometric decay of the increments, quotient well below one
    ratios = [b / a for a, b in zip(st.terms[1:], st.terms[2:])]
    assert all(q < 0.5 for q in ratios)
    # the tail bound is an integral-level envelope, finite well below the
    # critical coupling
    assert np.isfinite(st.tail_bound) and st.tail_bound >= 0.0


@pytest.mark.slow
def test_series_and_fixed_point_agree(ref_subcritical):
    st = tilde_p(1.0, X, Y, ref_subcritical)
    fp = tilde_p_fixed_point(1.0, X, [Y], ref_subcritical)[0]
    # both routes run at the default 1e-3 grid tolerance
    assert st.value == pytest.approx(fp.value, rel=1e-3)


@pytest.mark.slow
def test_critical_fixed_point_regression(ref_critical):
    # frozen value at the critical coupling, where the series alone stalls
    fp = tilde_p_fixed_point(1.0, X, [Y], ref_critical)[0]
    assert fp.value == pytest.approx(0.02039493734685286, rel=1e-6)


@pytest.mark.slow
def test_duhamel_residual(ref_subcritical):
    eng = get_planar_engine(ref_subcritical, 1.0, X, QuadratureConfig())
    res = duhamel_residual(1.0, X, Y, eng, ref_subcritical)
    assert res < 1e-3


def test_duhamel_residual_arguments(ref_free):
    # the residual integrates an engine centred at x with horizon t; at zero
    # coupling the engine's correction is 0 and the Duhamel form holds exactly
    cfg = QuadratureConfig(time_subdivisions=4, radial_per_decade=1, n_angular=8)
    eng = PlanarKernelEngine(ref_free, 1.0, X, cfg)
    with pytest.raises(DomainError, match="pointwise engine"):
        duhamel_residual(1.0, X, Y, object(), ref_free)
    with pytest.raises(DomainError, match="centered at x"):
        duhamel_residual(1.0, (2.0, 0.0), Y, eng, ref_free)
    with pytest.raises(DomainError, match="centered at x"):
        duhamel_residual(1.0, (0.0, 1.0), Y, eng, ref_free)
    with pytest.raises(DomainError, match="horizon"):
        duhamel_residual(2.0, X, Y, eng, ref_free)
    assert duhamel_residual(1.0, X, Y, eng, ref_free) == 0.0


def test_unconverged_fixed_point(ref_critical, unconverged_engines):
    # the residual refuses an iterate that has not converged, and value_at
    # answers with a 5 times larger error
    eng = PlanarKernelEngine(ref_critical, 1.0, X, unconverged_engines)
    with pytest.raises(DivergenceError, match="not converged"):
        duhamel_residual(1.0, X, Y, eng, ref_critical)
    val = eng.value_at(Y)
    assert not eng.correction().converged
    assert val.abs_error == pytest.approx(5.0 * 2e-2 * val.value, rel=1e-12)


def test_engine_symmetry(ref_subcritical):
    # p(t, x, y) = p(t, y, x): two engines centered at either point agree
    cfg = QuadratureConfig()
    a = tilde_p(1.0, (0.7, 0.2), (-0.4, 0.5), ref_subcritical, cfg)
    b = tilde_p(1.0, (-0.4, 0.5), (0.7, 0.2), ref_subcritical, cfg)
    assert a.value == pytest.approx(b.value, rel=2e-3)


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(eps0=0.0)
    for factor in (float("nan"), float("inf"), 0.0, -1.25):
        with pytest.raises(DomainError):
            QuadratureConfig().refined(factor)


def test_grid_read_across_the_axis(ref_subcritical):
    # points a hair either side of the engine's axis read the same column;
    # just below it the angle reduces to 2 pi and must not extrapolate
    eng = PlanarKernelEngine(ref_subcritical, 1.0, (1.0, 0.0))
    U = eng.slice_of(eng.term(0)[-1], True)
    pts = np.array([(0.5, -1e-17), (0.5, 0.0), (0.5, 1e-17)])
    vals = U.read(pts)
    assert vals == pytest.approx(np.full(3, vals[1]), rel=1e-12)
    # the free kernel at distance 0.5 from y, up to interpolation error
    assert vals[1] == pytest.approx(float(kernel_t(1.0, 0.5, 2, 1.0)), rel=2e-2)
    # an array of points reads as the point-at-a-time reference does
    rng = np.random.default_rng(5)
    more = np.concatenate([rng.uniform(-3.0, 3.0, (200, 2)), pts])
    ref = [_read_one(eng, U.values, x) for x in more]
    assert U.read(more) == pytest.approx(ref, rel=1e-13)


def test_slice_integrates_a_power_law(ref_subcritical):
    # values |z|^{-a} against the weight |z|^{-(q - a)}: the grid sum and the
    # disc inside r_min, continued as |z|^{-q}, give the integral over
    # |z| < r_max exactly; at q = 1.9 the disc is 28 % of it
    eng = PlanarKernelEngine(ref_subcritical, 1.0, X,
                             QuadratureConfig(time_subdivisions=4, n_angular=8))
    r = np.broadcast_to(eng.r_grid[:, None], (len(eng.r_grid), eng.n_theta))
    for q in (0.5, 1.0, 1.9):
        U = eng.slice_of(r ** (-0.5 * q), True)
        exact = 2.0 * math.pi * eng.r_max ** (2.0 - q) / (2.0 - q)
        assert U.integrate(r ** (-0.5 * q), q) == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("alpha, n_angular", [(1.0, 8), (1.0, 9), (1.5, 8)])
def test_angular_convolution_matches_direct_sum(alpha, n_angular):
    # the engine transforms the kernel over half the angle lags only (it is
    # even in the lag); that must equal the plain sum over all grid pairs,
    # for an odd angular grid too
    p = ModelParams.from_kappa(2, alpha, 0.5 * kappa_star(2, alpha))
    eng = PlanarKernelEngine(p, 1.0, X, QuadratureConfig(n_angular=n_angular,
                                                         radial_per_decade=1))
    G = np.random.default_rng(3).random((len(eng.r_grid), n_angular))
    r = eng.r_grid[:, None, None, None]
    w = eng.r_grid[None, None, :, None]
    lag = eng.theta[None, :, None, None] - eng.theta[None, None, None, :]
    dist = np.sqrt(np.maximum(r ** 2 + w ** 2 - 2.0 * r * w * np.cos(lag), 0.0))
    for s in (1e-3, 0.3):
        direct = np.einsum("jakb,kb->ja", kernel_t(s, dist, 2, alpha),
                           eng.cell_w * G)
        fast = eng._apply(eng._kernel_fft(s), G)
        assert fast == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_radial_angular_means_match_angular_average(alpha):
    # the operator build reads both triangles of the grid means from the
    # pairs i <= j only, and the inner-ring means from a flattened table;
    # both must be angular_average to the last bit.  The 64 radii give 2080
    # pairs, full blocks and a partial one.
    r, _ = log_panel_nodes(1e-5, 1e3, n_per_panel=8, per_decade=1)
    a_in, _ = log_panel_nodes(1e-9, 1e-5, 8, 2)
    assert len(r) * (len(r) + 1) // 2 % stable_kernel._BLOCK_ROWS
    means = duhamel._AngularMeans(r, a_in, 2, alpha)
    for s in (1e-6, 0.3, 0.99):
        grid, ring = means.at(s)
        assert np.array_equal(
            grid, angular_average(s, r[:, None], r[None, :], 2, alpha))
        assert np.array_equal(
            ring, angular_average(s, r[:, None], a_in[None, :], 2, alpha))


def _read_one(eng, U, x):
    """Reference bilinear (log r, theta) read of one point, in scalar math."""
    r, n = eng.r_grid, eng.n_theta
    rx = min(max(math.hypot(x[0], x[1]), r[0]), r[-1])
    th = (math.atan2(x[1], x[0]) - eng.y_angle) % (2.0 * math.pi)
    i = min(max(int(np.searchsorted(r, rx)) - 1, 0), len(r) - 2)
    fr = math.log(rx / r[i]) / math.log(r[i + 1] / r[i])
    jr = int(th / (2.0 * math.pi) * n)
    ft = th / eng.w_theta - jr
    cols = [jr % n, (jr + 1) % n]
    lu = np.log(np.maximum(U[i:i + 2][:, cols], 1e-300))
    return math.exp((1 - fr) * (1 - ft) * lu[0, 0] + (1 - fr) * ft * lu[0, 1]
                    + fr * (1 - ft) * lu[1, 0] + fr * ft * lu[1, 1])


def test_engine_cache_keys(ref_subcritical, monkeypatch):
    monkeypatch.setattr(duhamel, "_ENGINE_CACHE", {})
    cfg = QuadratureConfig()
    eng = get_planar_engine(ref_subcritical, 1.0, X, cfg)
    assert get_planar_engine(ref_subcritical, 1.0, X, QuadratureConfig()) is eng
    assert get_planar_engine(ref_subcritical, 1.0, X, replace(cfg, n_angular=16)) is not eng
    # above kappa* delta is NaN; params compare on (d, alpha, kappa), so
    # equal couplings are equal params and share one engine
    ks = kappa_star(2, 1.0)
    a = ModelParams.from_kappa(2, 1.0, 1.05 * ks)
    b = ModelParams.from_kappa(2, 1.0, 1.05 * ks)
    assert a == b and hash(a) == hash(b)
    assert get_planar_engine(a, 1.0, X, cfg) is get_planar_engine(b, 1.0, X, cfg)
    with pytest.raises(FrozenInstanceError):
        cfg.n_angular = 16


# coarser grids than the default keep the builds short; the terms are
# summed in the same order on every grid
_BUILD = """
import hashlib, sys
from hardyheat.duhamel import PlanarKernelEngine, QuadratureConfig, RadialWeightedEngine
from hardyheat.params import ModelParams, kappa_star
cfg = QuadratureConfig(radial_per_decade=2, sigma_per_decade=1.0)
planar = QuadratureConfig(time_subdivisions=4, radial_per_decade=1, n_angular=8)
for alpha in (1.0, 1.5):
    p = ModelParams.from_kappa(2, alpha, 0.5 * kappa_star(2, alpha))
    op = RadialWeightedEngine(p, p.delta, cfg).operator
    eng = PlanarKernelEngine(p, 1.0, (1.0, 0.0), planar)
    for a in (op, eng.first_term(), eng.fixed_point()[0]):
        print(hashlib.sha256(a.tobytes()).hexdigest())
status = open("/proc/self/status").read().splitlines()
print([line.split()[1] for line in status if line.startswith("Threads:")][0])
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the thread count from /proc/self/status")
def test_results_are_independent_of_the_workers():
    # K is summed in node order and each planar time slice on one thread,
    # whatever the number of workers; with one worker no pool thread starts
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "GOTO_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(duhamel.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = {}
    for workers in ("1", "2"):
        env["HARDYHEAT_THREADS"] = workers
        res = subprocess.run([sys.executable, "-c", _BUILD], env=env, timeout=300,
                             capture_output=True, text=True, check=True)
        out[workers] = res.stdout.split()
    assert len(out["1"]) == 7
    assert out["1"][:-1] == out["2"][:-1]
    assert out["1"][-1] == "1"


def _builds(p):
    """The radial operator, p_1 and the fixed point (iterate, flag, sweeps)
    of small engines."""
    radial = QuadratureConfig(radial_per_decade=1, sigma_per_decade=1.0)
    planar = QuadratureConfig(time_subdivisions=4, radial_per_decade=1, n_angular=8)
    eng = PlanarKernelEngine(p, 1.0, X, planar)
    return (duhamel.RadialWeightedEngine(p, p.delta, radial).operator,
            eng.first_term(), *eng.fixed_point())


def test_results_under_thread_switching(monkeypatch):
    # more workers than cores and a short switch interval: a buffer shared
    # between workers, or a term or time slice stacked out of order, would
    # move the bits
    p = ModelParams.from_kappa(2, 1.5, 0.5 * kappa_star(2, 1.5))
    monkeypatch.setenv("HARDYHEAT_THREADS", "1")
    ref = _builds(p)
    monkeypatch.setattr(duhamel, "workers", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _builds(p)
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))
