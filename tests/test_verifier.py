"""Identity checks: Chapman-Kolmogorov, supermedian, invariance, trichotomy probe."""

import numpy as np
import pytest

from hardyheat import verifier
from hardyheat.duhamel import RadialWeightedEngine, get_planar_engine
from hardyheat.errors import DivergenceError, DomainError
from hardyheat.params import ModelParams, kappa_star
from hardyheat.verifier import (
    H_weight,
    blowup_probe,
    bounds_scan,
    check_H_supermedian,
    check_chapman_kolmogorov,
    check_invariance,
    check_supermedian,
    continuity_scan,
)

KS = kappa_star(2, 1.0)


def test_H_weight_basics():
    assert H_weight(1.0, 1.0, 0.5, 1.0) == pytest.approx(2.0)
    assert float(H_weight(1.0, 1e6, 0.5, 1.0)) == pytest.approx(1.0, abs=1e-2)
    # scaling covariance H(t, r) = H(1, r t^{-1/alpha})
    assert float(H_weight(4.0, 2.0, 0.3, 1.0)) == pytest.approx(
        float(H_weight(1.0, 0.5, 0.3, 1.0)), rel=1e-14)


def test_chapman_kolmogorov_free(ref_free):
    res = check_chapman_kolmogorov(0.5, 0.5, (1.0, 0.0), (0.0, 1.0), ref_free)
    assert res.status == "pass"
    assert res.defect < 1e-6
    # the free-kernel reference is a planar quadrature: other dimensions are
    # refused rather than reported as a false failure
    with pytest.raises(DomainError):
        check_chapman_kolmogorov(0.5, 0.5, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                 ModelParams.from_kappa(3, 1.0, 0.0))


@pytest.mark.slow
def test_chapman_kolmogorov_coupled(ref_subcritical):
    res = check_chapman_kolmogorov(0.5, 0.5, (1.0, 0.0), (0.0, 1.0),
                                   ref_subcritical)
    assert res.status == "pass"
    assert res.defect < 1e-2


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason=(
    "at kappa* on the default grid the defect is 3.21e-2 against 1e-2 "
    "(lhs 0.042843, rhs 0.041510); it is 7.67e-3 at kappa*/2 and 5.26e-4 on "
    "refined(1.25). The stop rule is not the cause: with rel_tol 1e-5 the "
    "defect is still 3.211e-2. The t = 0.5 correction V(0.5, x, y) moves by "
    "12 % between the default grid and refined(1.25) (3.913e-3 -> "
    "3.454e-3), the rhs by 0.3 %."))
def test_chapman_kolmogorov_at_critical_coupling(ref_critical):
    res = check_chapman_kolmogorov(0.5, 0.5, (1.0, 0.0), (0.0, 1.0),
                                   ref_critical)
    assert res.status == "pass"
    assert res.defect < 1e-2


def test_unconverged_fixed_point_fails_closed(ref_critical, unconverged_engines):
    # every check that reads the planar fixed point refuses an iterate that
    # has not converged, rather than report a defect computed from it
    eng = get_planar_engine(ref_critical, 1.0, (1.0, 0.0), unconverged_engines)
    assert not eng.slice().converged
    with pytest.raises(DivergenceError):
        check_chapman_kolmogorov(0.5, 0.5, (1.0, 0.0), (0.0, 1.0), ref_critical)
    with pytest.raises(DivergenceError):
        bounds_scan(ref_critical)
    with pytest.raises(DivergenceError):
        continuity_scan(ref_critical)


def test_supermedian_equality(ref_subcritical):
    res = check_supermedian(1.0, (1.0, 0.0), ref_subcritical)
    assert res.status == "pass"
    assert res.details["quadrature"] <= res.details["target"] * 1.02


def _no_radial_engine(*args, **kwargs):
    raise AssertionError("a radial engine was built")


def test_supermedian_rejects_origin(ref_subcritical, monkeypatch):
    # |x|^{-delta} is infinite at x = 0: refused before any engine is built
    monkeypatch.setattr(verifier, "get_radial_engine", _no_radial_engine)
    with pytest.raises(DomainError):
        check_supermedian(1.0, (0.0, 0.0), ref_subcritical)


def test_invariance_rejects_origin(ref_subcritical, monkeypatch):
    monkeypatch.setattr(verifier, "get_radial_engine", _no_radial_engine)
    with pytest.raises(DomainError):
        check_invariance(0.25 * ref_subcritical.delta, 1.0, (0.0, 0.0),
                         ref_subcritical)


def test_supermedian_rejects_supercritical():
    p = ModelParams.from_kappa(2, 1.0, 1.2 * KS)
    with pytest.raises(DomainError):
        check_supermedian(1.0, (1.0, 0.0), p)


def test_H_supermedian(ref_subcritical, monkeypatch):
    res = check_H_supermedian(1.0, (1.0, 0.0), ref_subcritical)
    assert res.status == "pass"
    assert np.isfinite(res.details["empirical_M"])
    assert res.details["grid_min"] > 0.0
    # a beta = delta profile 5% low pulls the ratio below 1 near the origin,
    # where H is dominated by |x|^{-delta}; the check must see it
    delta = ref_subcritical.delta
    evaluator = RadialWeightedEngine.evaluator

    def low_evaluator(self):
        F = evaluator(self)
        return (lambda t, r: 0.95 * F(t, r)) if self.beta == delta else F

    monkeypatch.setattr(RadialWeightedEngine, "evaluator", low_evaluator)
    res = check_H_supermedian(1.0, (1.0, 0.0), ref_subcritical)
    assert res.status == "fail"
    assert res.defect > res.tolerance


def test_invariance_with_coupling_correction(ref_subcritical):
    delta = ref_subcritical.delta
    for beta in (0.25 * delta, 1.5 * delta):
        res = check_invariance(beta, 1.0, (1.0, 0.0), ref_subcritical)
        assert res.status == "pass"
        assert res.defect < 1e-2


def test_invariance_rejects_bad_beta(ref_subcritical):
    with pytest.raises(DomainError):
        check_invariance(1.5, 1.0, (1.0, 0.0), ref_subcritical)


@pytest.mark.slow
def test_continuity_scan(ref_subcritical):
    res = continuity_scan(ref_subcritical)
    # finer sampling of a continuous function has smaller normalized jumps
    assert res.details["fine_jump"] < res.details["coarse_jump"]


@pytest.mark.slow
def test_blowup_trichotomy():
    sup = ModelParams.from_kappa(2, 1.0, 1.05 * KS)
    rep = blowup_probe(1.0, (1.0, 0.0), sup)
    assert rep.diverged and not rep.converged
    assert rep.s_over_reference > 1e3
    assert min(rep.last_ratios) > 1.0

    sub = ModelParams.from_kappa(2, 1.0, 0.95 * KS)
    rep = blowup_probe(1.0, (1.0, 0.0), sub)
    assert rep.converged and not rep.diverged
    assert max(rep.last_ratios) < 1.0


def test_blowup_probe_refuses_critical(ref_critical):
    with pytest.raises(DomainError):
        blowup_probe(1.0, (1.0, 0.0), ref_critical)
