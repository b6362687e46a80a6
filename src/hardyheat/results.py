"""The outcome record shared by every check, in verifier, forms and the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    status: str            # "pass" | "fail" | "warn"
    defect: float
    tolerance: float
    runtime: float
    details: dict = field(default_factory=dict)


def make_result(name: str, defect: float, tol: float, t0: float,
                warn_only: bool = False, **details) -> CheckResult:
    """A CheckResult that passes when defect <= tol; a failure is reported as
    "warn" when warn_only is set.  t0 is the check's start time."""
    ok = defect <= tol
    status = "pass" if ok else ("warn" if warn_only else "fail")
    return CheckResult(name=name, status=status, defect=float(defect),
                       tolerance=float(tol), runtime=time.time() - t0,
                       details=details)
