"""The outcome record shared by every check, in verifier, forms and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    status: str            # "pass" | "fail" | "warn"
    defect: float
    tolerance: float
    details: dict = field(default_factory=dict)


def make_result(name: str, defect: float, tol: float, warn_only: bool = False,
                **details) -> CheckResult:
    """A CheckResult that passes when defect <= tol; a failure is reported as
    "warn" when warn_only is set."""
    ok = defect <= tol
    status = "pass" if ok else ("warn" if warn_only else "fail")
    return CheckResult(name=name, status=status, defect=float(defect),
                       tolerance=float(tol), details=details)
