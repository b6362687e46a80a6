"""Dirichlet form routes, the Hardy inequality and the conditioned-form identity."""

import numpy as np
import pytest

from hardyheat import forms
from hardyheat.errors import DomainError
from hardyheat.forms import (
    TestFunction,
    _h_weight_constant,
    bar_energy,
    check_form_identity,
    check_hardy,
    energy,
    frac_laplacian,
    frac_laplacian_fourier,
    load_corpus,
    near_optimizer,
    near_optimizer_gaps,
    weighted_l2,
)
from hardyheat.params import ModelParams, kappa_of_beta, kappa_star

GAUSS = TestFunction(kind="gaussian", center=(0.0, 0.0), scale=1.0)
BUMP = TestFunction(kind="bump", center=(0.0, 0.0), scale=1.0)


def test_gaussian_energy_closed_form(ref_free):
    # E[exp(-|x|^2/2)] = pi^{3/2}/2 in d = 2, alpha = 1
    target = np.pi ** 1.5 / 2.0
    four = energy(GAUSS, ref_free, route="fourier_side")
    direct = energy(GAUSS, ref_free, route="direct_double")
    assert four.value == pytest.approx(target, rel=1e-12)
    assert direct.value == pytest.approx(target, rel=1e-10)


def test_gaussian_energy_dilation_law(ref_free):
    # E[f(./s)] = s^{d - alpha} E[f]
    for s in (0.5, 2.0):
        f = TestFunction(kind="gaussian", center=(0.0, 0.0), scale=s)
        e = energy(f, ref_free, route="fourier_side")
        assert e.value == pytest.approx(s * np.pi ** 1.5 / 2.0, rel=1e-12)


def test_bump_energy_routes_agree(ref_free):
    a = energy(BUMP, ref_free, route="fourier_side")
    b = energy(BUMP, ref_free, route="direct_double")
    assert a.value == pytest.approx(b.value, rel=1e-5)


def test_energy_translation_invariance(ref_free):
    shifted = TestFunction(kind="gaussian", center=(3.0, -1.0), scale=1.0)
    e = energy(shifted, ref_free, route="direct_double")
    assert e.value == pytest.approx(np.pi ** 1.5 / 2.0, rel=1e-9)


def test_frac_laplacian_routes_agree(ref_free):
    for f, tol in [(GAUSS, 1e-4), (BUMP, 1e-3)]:
        for x in [(0.3, 0.0), (0.9, 0.4)]:
            pv = frac_laplacian(f, x, ref_free)
            fo = frac_laplacian_fourier(f, x, ref_free)
            assert pv == pytest.approx(fo, rel=tol, abs=1e-8)


def test_frac_laplacian_pairing_equals_energy(ref_free):
    # the generator pairing -int f L f recovers the Dirichlet form E[f]
    from hardyheat.quadrature import log_panel_nodes

    xs, ws = log_panel_nodes(1e-4, 30.0, n_per_panel=10, per_decade=3)
    vals = np.array([frac_laplacian(GAUSS, (r, 0.0), ref_free)
                     for r in xs])
    prof = GAUSS.radial_profile(xs)
    pairing = -2.0 * np.pi * float(np.sum(ws * xs * prof * vals))
    assert pairing == pytest.approx(np.pi ** 1.5 / 2.0, rel=1e-3)


def test_weighted_l2_gaussian():
    # int exp(-r^2) r^{-1} dx = 2 pi int_0^inf exp(-r^2) dr = pi^{3/2}
    assert weighted_l2(GAUSS, 1.0) == pytest.approx(np.pi ** 1.5, rel=5e-7)


def test_h_weight_constant_matches_coupling_curve():
    # the cross-term constant of the ground-state transform equals the
    # negated coupling constant of the weight exponent
    for delta in (0.1, 0.25, 0.4994):
        c = _h_weight_constant(delta, 1.0, 2)
        assert c == pytest.approx(-kappa_of_beta(2, 1.0, delta), abs=5e-8)


def test_bar_energy_reduces_at_zero_coupling(ref_free):
    e = energy(GAUSS, ref_free, route="direct_double")
    bar = bar_energy(GAUSS, ref_free)
    assert bar.value == pytest.approx(e.value, rel=1e-9)


def test_corpus_loads():
    corpus = load_corpus()
    assert len(corpus) == 20
    kinds = {f.kind for f in corpus}
    assert kinds == {"gaussian", "bump", "product"}


def test_hardy_and_identity_on_sample(ref_critical):
    for f in (GAUSS, BUMP):
        h = check_hardy(f, ref_critical)
        assert h.status == "pass"
        assert h.details["gap"] > 0.0
        ident = check_form_identity(f, ref_critical)
        assert ident.status == "pass"


def test_form_identity_subcritical(ref_subcritical):
    res = check_form_identity(GAUSS, ref_subcritical)
    assert res.status == "pass"
    assert res.defect < 1e-4


def test_near_optimizer_gaps_decrease(ref_critical):
    gaps = near_optimizer_gaps((2, 4, 8), ref_critical)
    assert all(g > 0.0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]


def test_near_optimizer_gaps_are_pinned(ref_critical):
    # the Hankel product runs in row blocks; its bits are those of one product
    gaps = near_optimizer_gaps((2, 4, 8), ref_critical)
    expected = [0.766963580207698, 0.6632923025416984, 0.5825702258138893]
    assert gaps == pytest.approx(expected, rel=1e-13)


def test_energy_is_computed_once_per_function(monkeypatch, ref_critical,
                                              ref_subcritical):
    # a non-radial bump: its energy comes from the FFT autocorrelation
    f = next(f for f in load_corpus()
             if f.kind != "gaussian" and not f.is_radial)
    calls = []
    real = forms._fft_autocorrelation

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(forms, "_fft_autocorrelation", counted)
    forms._energy.cache_clear()
    check_hardy(f, ref_critical)
    for p in (ref_critical, ref_subcritical):
        check_form_identity(f, p)
    assert calls == [f]


def test_autocorrelation_reads_all_rings_as_one_at_a_time():
    # one spline call for every ring gives each ring's own bits
    f = next(f for f in load_corpus()
             if f.kind != "gaussian" and not f.is_radial)
    corr, _, r_valid = forms._fft_autocorrelation(f)
    r = np.append(np.geomspace(1e-4, r_valid, 40), 1.01 * r_valid)
    rings = corr(r)
    assert np.array_equal(rings, [corr(ri)[0] for ri in r])
    assert rings[-1] == 0.0 and rings[0] > 0.0


def test_test_function_is_hashable():
    f = TestFunction(kind="gaussian", center=[0, 0], scale=1)
    assert f.center == (0.0, 0.0)
    assert hash(f) == hash(GAUSS) and f == GAUSS
    g = TestFunction(kind="product", center=[1, 0], scale=1.0,
                     center2=np.array([2.0, 0.0]), scale2=0.5)
    assert g.center2 == (2.0, 0.0)
    hash(g)


def test_near_optimizer_is_radial():
    f = near_optimizer(4)
    assert f.is_radial
    assert f.support_radius >= 8.0


def test_bad_kind_rejected():
    with pytest.raises(DomainError):
        TestFunction(kind="wavelet", center=(0.0, 0.0), scale=1.0)
    with pytest.raises(DomainError):
        TestFunction(kind="product", center=(0.0, 0.0), scale=1.0)
