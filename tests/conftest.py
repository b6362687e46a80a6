"""Shared fixtures for the test suite.

The reference configuration used throughout is d = 2, alpha = 1 (the Cauchy
case, where the free kernel has a closed form), with couplings expressed as
fractions of the critical value.
"""

import numpy as np
import pytest

from hardyheat import duhamel, verifier
from hardyheat.params import ModelParams, kappa_star


@pytest.fixture(scope="session")
def ref_subcritical() -> ModelParams:
    """Light subcritical coupling used by most engine-backed tests."""
    return ModelParams.from_kappa(2, 1.0, 0.1)


@pytest.fixture(scope="session")
def ref_critical() -> ModelParams:
    return ModelParams.from_kappa(2, 1.0, kappa_star(2, 1.0))


@pytest.fixture(scope="session")
def ref_free() -> ModelParams:
    return ModelParams.from_kappa(2, 1.0, 0.0)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)


# one sweep on a coarse grid: the fixed point at kappa* cannot converge
UNCONVERGED = duhamel.QuadratureConfig(max_terms=1, time_subdivisions=4,
                                       radial_per_decade=1, n_angular=8)


@pytest.fixture()
def unconverged_engines(monkeypatch):
    """The verifier's planar engines, built on UNCONVERGED whatever grid a
    check asks for, in a cache of their own; returns UNCONVERGED."""
    monkeypatch.setattr(duhamel, "_ENGINE_CACHE", {})
    monkeypatch.setattr(verifier, "get_planar_engine",
                        lambda params, t, y, cfg=None: duhamel.get_planar_engine(
                            params, t, y, UNCONVERGED))
    return UNCONVERGED
