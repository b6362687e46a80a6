"""Heat kernel of the fractional Laplacian with a Hardy potential.

Numerical construction of the perturbed kernel via the Duhamel series,
together with independent verification routes (quadrature and Monte Carlo)
for the invariance identities, the two-sided comparability estimate, the
Hardy inequality, and the blow-up trichotomy of the coupling.
"""

from .pool import cap_blas_threads

cap_blas_threads()   # before any numpy import

from .errors import (
    DivergenceError,
    DomainError,
    HardyHeatError,
    QuadratureError,
    ReliabilityError,
)
from .params import (
    ModelParams,
    Regime,
    delta_of_kappa,
    kappa_curve,
    kappa_of_beta,
    kappa_star,
)
from .stable_kernel import free_kernel, kernel_t, levy_symbol, weighted_mass
from .duhamel import QuadratureConfig, tilde_p, tilde_p_fixed_point
from .mc_oracle import McConfig, feynman_kac, fk_invariance_defect
from .verifier import (
    H_weight,
    blowup_probe,
    bounds_scan,
    check_chapman_kolmogorov,
    check_invariance,
    check_supermedian,
)
from .forms import (
    TestFunction,
    bar_energy,
    check_form_identity,
    check_hardy,
    energy,
    load_corpus,
    near_optimizer,
)

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "DomainError",
    "HardyHeatError",
    "H_weight",
    "McConfig",
    "ModelParams",
    "QuadratureConfig",
    "QuadratureError",
    "Regime",
    "ReliabilityError",
    "TestFunction",
    "bar_energy",
    "blowup_probe",
    "bounds_scan",
    "check_chapman_kolmogorov",
    "check_form_identity",
    "check_hardy",
    "check_invariance",
    "check_supermedian",
    "delta_of_kappa",
    "energy",
    "feynman_kac",
    "fk_invariance_defect",
    "free_kernel",
    "kappa_curve",
    "kappa_of_beta",
    "kappa_star",
    "kernel_t",
    "levy_symbol",
    "load_corpus",
    "near_optimizer",
    "tilde_p",
    "tilde_p_fixed_point",
    "weighted_mass",
]
