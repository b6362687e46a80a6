"""Monte Carlo oracle: sampler laws, determinism, error scaling."""

import numpy as np
import pytest

from hardyheat.errors import DomainError
from hardyheat.mc_oracle import (
    McConfig,
    feynman_kac,
    fk_invariance_defect,
    make_rng,
    stable_increments,
    subordinator_increments,
)
from hardyheat.stable_kernel import weighted_mass


def test_subordinator_laplace_transform():
    # E exp(-lam S) = exp(-h lam^a)
    rng = make_rng(7)
    n, h, a = 400_000, 0.3, 0.5
    s = subordinator_increments(rng, n, h, a)
    assert np.all(s > 0)
    for lam in (0.5, 1.0, 3.0):
        emp = np.exp(-lam * s)
        mean, se = emp.mean(), emp.std(ddof=1) / np.sqrt(n)
        assert mean == pytest.approx(np.exp(-h * lam ** a), abs=4.0 * se)


def test_subordinator_index_domain():
    rng = make_rng(7)
    with pytest.raises(DomainError):
        subordinator_increments(rng, 10, 0.1, 1.0)


def test_stable_characteristic_function():
    rng = make_rng(11)
    n, d, h, alpha = 400_000, 2, 0.7, 1.0
    x = stable_increments(rng, n, d, h, alpha)
    for xi in ((1.0, 0.0), (0.5, 0.5)):
        ph = np.cos(x @ np.asarray(xi))
        mean, se = ph.mean(), ph.std(ddof=1) / np.sqrt(n)
        target = np.exp(-h * np.hypot(*xi) ** alpha)
        assert mean == pytest.approx(target, abs=4.0 * se)


def test_seed_determinism(ref_subcritical):
    cfg = McConfig(n_paths=2000, n_steps=40, seed=99)
    a = feynman_kac((1.0, 0.0), 1.0, 0.5, ref_subcritical, cfg)
    b = feynman_kac((1.0, 0.0), 1.0, 0.5, ref_subcritical, cfg)
    assert a == b
    c = feynman_kac((1.0, 0.0), 1.0, 0.5, ref_subcritical,
                    McConfig(n_paths=2000, n_steps=40, seed=100))
    assert c.mean != a.mean


def test_free_weighted_mass_agreement(ref_free):
    # at zero coupling the estimator reduces to E|X_t|^{-beta}, with the
    # subordination quadrature as an exact reference
    cfg = McConfig(n_paths=40_000, n_steps=50, seed=5)
    est = feynman_kac((1.0, 0.0), 1.0, 0.5, ref_free, cfg)
    ref = weighted_mass(1.0, 1.0, 0.5, 2, 1.0).value
    assert est.mean == pytest.approx(ref, abs=4.0 * est.std_error)
    assert est.capped_fraction == 0.0


def test_error_scaling(ref_free):
    small = feynman_kac((1.0, 0.0), 1.0, 0.5, ref_free,
                        McConfig(n_paths=5_000, n_steps=30, seed=21))
    big = feynman_kac((1.0, 0.0), 1.0, 0.5, ref_free,
                      McConfig(n_paths=80_000, n_steps=30, seed=21))
    ratio = small.std_error / big.std_error
    assert 2.5 < ratio < 6.5    # sqrt(16) = 4 up to sampling noise


@pytest.mark.slow
def test_invariance_defect_centered(ref_subcritical):
    cfg = McConfig(n_paths=50_000, n_steps=60, seed=17)
    est = fk_invariance_defect((1.0, 0.0), 1.0, ref_subcritical.delta,
                               ref_subcritical, cfg)
    assert abs(est.mean) <= 3.0 * est.std_error


def test_config_validation():
    with pytest.raises(DomainError):
        McConfig(n_paths=0)
    with pytest.raises(DomainError):
        McConfig(n_steps=0)
