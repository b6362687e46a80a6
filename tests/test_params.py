"""Coupling-curve constants, the inverse exponent map and regime tags."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyheat.errors import DomainError
from hardyheat.params import (
    ModelParams,
    Regime,
    classify,
    delta_of_kappa,
    kappa_curve,
    kappa_of_beta,
    kappa_star,
)


def test_known_constants():
    assert kappa_star(3, 1.0) == pytest.approx(2.0 / np.pi, abs=1e-12)
    assert kappa_of_beta(3, 1.0, 0.5) == pytest.approx(0.5, abs=1e-12)
    # d = 2, alpha = 1 reference value, frozen from the Gamma-ratio formula
    assert kappa_star(2, 1.0) == pytest.approx(0.22847329052223186, abs=1e-14)


def test_kappa_star_is_curve_maximum():
    for d, alpha in [(2, 1.0), (3, 1.0), (3, 1.5), (2, 0.5)]:
        mid = (d - alpha) / 2.0
        ks = kappa_star(d, alpha)
        assert kappa_of_beta(d, alpha, mid) == pytest.approx(ks, rel=1e-13)
        for off in (0.1, 0.3):
            b = mid * (1.0 - off)
            assert kappa_of_beta(d, alpha, b) < ks


def test_curve_symmetry():
    # kappa_beta = kappa_{d - alpha - beta}
    for d, alpha in [(2, 1.0), (3, 1.2)]:
        for frac in (0.1, 0.25, 0.4):
            b = frac * (d - alpha)
            lhs = kappa_of_beta(d, alpha, b)
            rhs = kappa_of_beta(d, alpha, d - alpha - b)
            assert lhs == pytest.approx(rhs, rel=1e-13)


def test_curve_monotone_on_lower_branch():
    d, alpha = 2, 1.0
    betas = np.linspace(1e-3, (d - alpha) / 2.0, 200)
    ks = [kappa_of_beta(d, alpha, float(b)) for b in betas]
    assert all(a < b for a, b in zip(ks, ks[1:]))


def test_endpoints_vanish():
    assert kappa_of_beta(2, 1.0, 0.0) == 0.0
    table = kappa_curve(2, 1.0, 21)
    assert table.shape == (21, 2)
    assert table[0, 1] == 0.0
    assert table[-1, 1] == 0.0
    assert np.argmax(table[:, 1]) == 10


def test_delta_inverts_kappa():
    d, alpha = 2, 1.0
    for delta in (0.05, 0.2, 0.45):
        k = kappa_of_beta(d, alpha, delta)
        assert delta_of_kappa(d, alpha, k) == pytest.approx(delta, abs=1e-10)
    assert delta_of_kappa(d, alpha, 0.0) == 0.0
    assert delta_of_kappa(d, alpha, kappa_star(d, alpha)) == (d - alpha) / 2.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_delta_roundtrip_hypothesis(frac):
    d, alpha = 2, 1.0
    delta = frac * (d - alpha) / 2.0
    k = kappa_of_beta(d, alpha, delta)
    assert abs(delta_of_kappa(d, alpha, k) - delta) < 1e-8


def test_regime_classification():
    ks = kappa_star(2, 1.0)
    assert classify(2, 1.0, 0.5 * ks) is Regime.SUBCRITICAL
    assert classify(2, 1.0, ks) is Regime.CRITICAL
    assert classify(2, 1.0, 1.05 * ks) is Regime.SUPERCRITICAL
    p = ModelParams.from_kappa(2, 1.0, 1.05 * ks)
    assert p.is_supercritical and np.isnan(p.delta)


def test_domain_errors():
    with pytest.raises(DomainError):
        kappa_of_beta(2, 1.0, 1.5)       # beta outside [0, d - alpha)
    with pytest.raises(DomainError):
        kappa_of_beta(2, 2.5, 0.3)       # alpha outside (0, min(2, d))
    with pytest.raises(DomainError):
        delta_of_kappa(2, 1.0, 2.0 * kappa_star(2, 1.0))
    with pytest.raises(DomainError):
        ModelParams.from_kappa(2, 1.0, -0.1)
