"""Monte Carlo oracle: sampler laws, determinism, error scaling."""

import numpy as np
import pytest

from hardyheat.errors import DomainError
from hardyheat.mc_oracle import (
    McConfig,
    McEstimate,
    _radius,
    feynman_kac,
    fk_invariance_defect,
    make_rng,
    stable_increments,
    subordinator_increments,
)
from hardyheat.params import ModelParams, kappa_star
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


@pytest.mark.parametrize("d", [2, 3])
def test_radius_matches_row_norm_bitwise(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((5001, d)) * np.exp(rng.uniform(-30, 30, (5001, d)))
    assert np.array_equal(_radius(x), np.sqrt(np.sum(x * x, axis=1)))


def test_seeded_estimates_are_pinned():
    # from x = (0.05, 0) some calls of the recursion split paths and some do
    # not; both branches must keep the generator's stream and every bit
    p = ModelParams.from_kappa(2, 1.0, 0.1)
    cfg = McConfig(n_paths=2000, n_steps=40, seed=7)
    assert feynman_kac((0.05, 0.0), 1.0, p.delta, p, cfg) == McEstimate(
        mean=1.4298440227675677, std_error=0.014886259746409142,
        ess=1643.8258095333624, capped_fraction=0.0)
    assert fk_invariance_defect((0.05, 0.0), 1.0, 0.25 * p.delta, p,
                                cfg) == McEstimate(
        mean=-0.0024857178431248635, std_error=0.004383200608461205,
        ess=528.9010101137881, capped_fraction=0.0)


# Taken before the step kept its radii and buffers: 2e4 paths x 20 steps
# from x = (0.05, 0), seed 7, beta = delta for feynman_kac and delta / 4 for
# fk_invariance_defect.  alpha = 1.5 takes the branch of Kanter's transform
# with two different sine factors.
SCALE_PINS = {
    1.0: (McEstimate(mean=1.4217798715640402, std_error=0.005020865247112711,
                     ess=16007.652494972399, capped_fraction=0.0),
          McEstimate(mean=-0.042174179576568875, std_error=0.0447831004654392,
                     ess=12.941214440506398, capped_fraction=0.0)),
    1.5: (McEstimate(mean=1983.855670225467, std_error=1981.8605198373043,
                     ess=1.0020143240395505, capped_fraction=0.0),
          McEstimate(mean=-38706.833979083785, std_error=38701.119279407096,
                     ess=1.0003093938328, capped_fraction=0.0)),
}


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_seeded_estimates_are_pinned_at_scale(alpha):
    p = ModelParams.from_kappa(2, alpha, 0.1 if alpha == 1.0 else 0.5 * kappa_star(2, alpha))
    cfg = McConfig(n_paths=20_000, n_steps=20, seed=7)
    assert (feynman_kac((0.05, 0.0), 1.0, p.delta, p, cfg),
            fk_invariance_defect((0.05, 0.0), 1.0, 0.25 * p.delta, p, cfg)) \
        == SCALE_PINS[alpha]


@pytest.mark.parametrize("x", [(np.nan, 0.0), (1.0, np.inf), (-np.inf, 1.0),
                               (1.0, 0.0, 0.0), (1.0,), "a,b", ()])
def test_bad_start_points_raise_domain_errors(ref_subcritical, x):
    cfg = McConfig(n_paths=10, n_steps=2)
    for fn in (feynman_kac, fk_invariance_defect):
        with pytest.raises(DomainError):
            fn(x, 1.0, 0.25 * ref_subcritical.delta, ref_subcritical, cfg)


@pytest.mark.parametrize("field", ["n_paths", "n_steps", "seed"])
@pytest.mark.parametrize("value", [10.5, True, 2.0, "3", None])
def test_config_fields_must_be_integers(field, value):
    with pytest.raises(DomainError):
        McConfig(**{field: value})
    assert getattr(McConfig(**{field: np.int64(3)}), field) == 3
