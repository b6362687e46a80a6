"""Exception types shared across the library."""


class HardyHeatError(Exception):
    """Base class for library errors."""


class DomainError(HardyHeatError):
    """A parameter lies outside the admissible range of an operation."""


class QuadratureError(HardyHeatError):
    """A quadrature did not converge to the requested tolerance."""


class DivergenceError(HardyHeatError):
    """An iteration diverged (expected for supercritical couplings)."""


class ReliabilityError(HardyHeatError):
    """A Monte Carlo estimate is flagged as unreliable (e.g. heavy capping)."""
