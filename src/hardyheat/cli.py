"""Command-line front end: parameter entry, suite orchestration, CSV/JSON
emission, and the exit-code contract (0 pass, 1 check failure, 2 usage or
domain error, 3 budget exceeded).

Output files are deterministic: identical configuration and seed produce
byte-identical bytes.  Wall-clock fields are therefore never serialized.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, is_dataclass
from enum import Enum
from math import isfinite

import click
import numpy as np

from . import forms as forms_mod
from .duhamel import QuadratureConfig, tilde_p
from .errors import DomainError, HardyHeatError
from .mc_oracle import McConfig, feynman_kac, fk_invariance_defect
from .params import (ModelParams, delta_of_kappa, kappa_curve, kappa_of_beta,
                     kappa_star)
from .results import make_result
from .stable_kernel import free_kernel
from .verifier import (blowup_probe, bounds_scan, check_chapman_kolmogorov,
                       check_H_supermedian, check_invariance,
                       check_supermedian, continuity_scan)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# Most rows that kappa --curve writes.
MAX_CURVE_ROWS = 100_000


# ---------------------------------------------------------------------------
# Serialization helpers


def _clean(obj):
    """Recursively convert to plain JSON types, rounding floats to 17
    significant digits and writing enums as their values."""
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = asdict(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.17g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _json(payload) -> str:
    doc = {"schema": 1}
    doc.update(_clean(payload))
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv(header: list, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            f"{v:.10g}" if isinstance(v, (float, np.floating)) else str(v)
            for v in row))
    return "\n".join(lines) + "\n"


def _parse_point(value: str, d: int) -> tuple:
    try:
        parts = tuple(float(v) for v in value.split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse point {value!r}")
    if len(parts) != d or not all(isfinite(v) for v in parts):
        raise click.UsageError(
            f"points must have {d} finite coordinates: {value!r}")
    return parts


def _parse_kappa(d: int, alpha: float, kappa: str | None,
                 delta: float | None) -> ModelParams:
    if (kappa is None) == (delta is None):
        raise click.UsageError("provide exactly one of --kappa / --delta")
    if delta is not None:
        return ModelParams.from_delta(d, alpha, delta)
    ks = kappa_star(d, alpha)
    if kappa == "critical":
        return ModelParams.from_kappa(d, alpha, ks)
    tag, _, number = kappa.rpartition(":")
    scale = {"": 1.0, "subcritical": ks, "supercritical": ks}.get(tag)
    try:
        value = scale * float(number)
    except (TypeError, ValueError):     # an unknown tag, or not a number
        raise click.UsageError(f"cannot parse coupling {kappa!r}")
    return ModelParams.from_kappa(d, alpha, value)


def _model_options(fn):
    fn = click.option("--d", type=int, default=2, show_default=True,
                      help="space dimension")(fn)
    fn = click.option("--alpha", type=float, default=1.0, show_default=True,
                      help="stability index in (0, 2), below d")(fn)
    return fn


def _coupling_options(fn):
    fn = click.option("--kappa", type=str, default=None,
                      help="coupling: a number, 'critical', or "
                           "'supercritical:F' / 'subcritical:F' as a "
                           "multiple of the critical constant")(fn)
    fn = click.option("--delta", type=float, default=None,
                      help="alternative to --kappa: the origin exponent")(fn)
    return fn


_budget_option = click.option(
    "--budget", type=float, default=None,
    help="seconds after which the partial result is written with exit 3")


@click.group()
def main():
    """Heat kernel of the fractional Laplacian with a critical Hardy
    potential: construction and verification suites."""


def _command(body):
    """Register body, which returns (text, exit code), as a subcommand with
    the model options and --output.  The command writes the text to stdout
    or --output and exits with the code.  Errors become exit codes here
    only: 2 for a usage or domain error or an unwritable --output, 1 for any
    other library error."""
    @functools.wraps(body)
    def run(output, **kwargs):
        try:
            text, code = body(**kwargs)
        except (click.UsageError, DomainError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_USAGE)
        except HardyHeatError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_FAIL)
        try:
            with click.open_file(output or "-", "w") as fh:
                fh.write(text)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_USAGE)
        sys.exit(code)

    run = click.option("--output", type=click.Path(dir_okay=False),
                       default=None,
                       help="write to a file instead of stdout")(run)
    return main.command()(_model_options(run))


def _run_checks(payload: dict, checks, budget: float | None) -> tuple:
    """Collect the CheckResults that the iterator checks yields into
    payload["results"] and render the payload with its overall status.

    The budget is checked before each check is pulled and once after the
    last; once it is spent the partial payload is rendered with status
    "budget_exceeded" and exit code 3.
    """
    start = time.monotonic()
    results = payload["results"] = []
    while budget is None or time.monotonic() - start < budget:
        res = next(checks, None)
        if res is None:
            ok = all(r.status == "pass" for r in results)
            payload["status"] = "pass" if ok else "fail"
            return _json(payload), EXIT_PASS if ok else EXIT_FAIL
        results.append(res)
    click.echo(f"budget: budget of {budget:g}s exceeded", err=True)
    payload["status"] = "budget_exceeded"
    return _json(payload), EXIT_BUDGET


@_command
@click.option("--beta", type=float, default=None,
              help="weight exponent: print the matching coupling")
@click.option("--kappa", type=float, default=None,
              help="coupling: print the matching origin exponent")
@click.option("--kappa-star", "star", is_flag=True,
              help="print the critical coupling")
@click.option("--curve", type=click.IntRange(max=MAX_CURVE_ROWS),
              default=None,
              help="emit an N-row CSV of the coupling curve")
def kappa(d, alpha, beta, kappa, star, curve):
    """The coupling curve beta -> kappa(beta) and its inverse."""
    chosen = sum(v is not None for v in (beta, kappa, curve)) + int(star)
    if chosen != 1:
        raise click.UsageError(
            "choose exactly one of --beta / --kappa / --kappa-star / --curve")
    if star:
        value = kappa_star(d, alpha)
    elif beta is not None:
        value = kappa_of_beta(d, alpha, beta)
    elif kappa is not None:
        value = delta_of_kappa(d, alpha, kappa)
    else:
        rows = kappa_curve(d, alpha, curve)
        return _csv(["beta", "kappa_beta"], rows), EXIT_PASS
    return f"{value:.10g}\n", EXIT_PASS


@_command
@click.option("--t", type=float, required=True)
@click.option("--x", type=str, required=True, help="point, e.g. 1,0")
@click.option("--y", type=str, required=True)
def kernel(d, alpha, t, x, y):
    """Evaluate the free stable kernel p(t, x, y)."""
    z = np.subtract(_parse_point(x, d), _parse_point(y, d))
    return _json(free_kernel(t, z, d, alpha)), EXIT_PASS


@_command
@_coupling_options
@click.option("--t", type=float, required=True)
@click.option("--x", type=str, required=True)
@click.option("--y", type=str, required=True)
@click.option("--rel-tol", type=float, default=1e-3, show_default=True)
@click.option("--max-terms", type=int, default=60, show_default=True)
def series(d, alpha, kappa, delta, t, x, y, rel_tol, max_terms):
    """Evaluate the perturbed kernel by its perturbation series."""
    params = _parse_kappa(d, alpha, kappa, delta)
    cfg = QuadratureConfig(rel_tol=rel_tol, max_terms=max_terms)
    state = tilde_p(t, _parse_point(x, d), _parse_point(y, d), params, cfg)
    return _json({**asdict(state), "value": state.value}), EXIT_PASS


@_command
@_coupling_options
@click.option("--t", type=float, required=True)
@click.option("--x", type=str, required=True)
@click.option("--beta", type=float, required=True,
              help="weight exponent of the estimated integral")
@click.option("--paths", type=int, default=10000, show_default=True)
@click.option("--steps", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=12345, show_default=True)
def mc(d, alpha, kappa, delta, t, x, beta, paths, steps, seed):
    """Monte Carlo estimate of the weighted kernel integral."""
    params = _parse_kappa(d, alpha, kappa, delta)
    cfg = McConfig(n_paths=paths, n_steps=steps, seed=seed)
    est = feynman_kac(_parse_point(x, d), t, beta, params, cfg)
    return _json({**asdict(est), "seed": seed}), EXIT_PASS


@_command
@_coupling_options
@click.option("--suite",
              type=click.Choice(["invariance", "supermedian", "chapman",
                                 "blowup", "all"]),
              required=True)
@click.option("--paths", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, default=12345, show_default=True)
@_budget_option
def verify(d, alpha, kappa, delta, suite, paths, seed, budget):
    """Run an identity/bound verification suite."""
    params = _parse_kappa(d, alpha, kappa, delta)
    e1 = np.eye(1, d)[0]
    payload = {"suite": suite}
    if suite == "blowup":
        report = blowup_probe(1.0, e1, params)
        ok = report.diverged if params.is_supercritical else report.converged
        payload.update(results=[], report=report,
                       status="pass" if ok else "fail")
        return _json(payload), EXIT_PASS if ok else EXIT_FAIL

    def checks():
        if suite in ("invariance", "all"):
            beta = 0.25 * params.delta
            yield check_invariance(beta, 1.0, e1, params)
            est = fk_invariance_defect(e1, 1.0, beta, params,
                                       McConfig(n_paths=paths, seed=seed))
            yield make_result("invariance_mc", abs(est.mean),
                              3.0 * est.std_error, mean=est.mean,
                              std_error=est.std_error)
        if suite in ("supermedian", "all"):
            for t, rx in ((1.0, 1.0), (1.0, 0.1), (4.0, 1.0)):
                yield check_supermedian(t, rx * e1, params)
            yield check_H_supermedian(1.0, e1, params)
        if suite in ("chapman", "all"):
            yield check_chapman_kolmogorov(0.5, 0.5, (1.0, 0.0),
                                           (0.0, 1.0), params)

    return _run_checks(payload, checks(), budget)


@_command
@_coupling_options
@click.option("--refine", type=float, default=1.25, show_default=True,
              help="grid refinement factor for the drift estimate")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def bounds(d, alpha, kappa, delta, refine, fmt):
    """Two-sided estimate scan: comparability constants and origin slope."""
    params = _parse_kappa(d, alpha, kappa, delta)
    report = bounds_scan(params, refine_factor=refine)
    cont = continuity_scan(params)
    if fmt == "csv":
        rows = []
        for t in sorted(report.ratios):
            grid = report.ratios[t]
            for j, r in enumerate(report.radii):
                for k, a in enumerate(report.angles):
                    rows.append((t, r, a, float(grid[j][k])))
        text = _csv(["t", "radius", "angle", "ratio"], rows)
    else:
        text = _json({"bounds": report, "continuity": cont})
    ok = (report.refinement_drift < 0.10
          and abs(report.slope - report.slope_target) <= 0.02)
    return text, EXIT_PASS if ok else EXIT_FAIL


@_command
@_coupling_options
@_budget_option
def form(d, alpha, kappa, delta, budget):
    """Dirichlet-form suite: Hardy inequality and the form identity on the
    test-function corpus, plus the near-optimizer family."""
    params = _parse_kappa(d, alpha, kappa, delta)
    payload = {}

    def checks():
        for tf in forms_mod.load_corpus(d, alpha):
            yield forms_mod.check_hardy(tf, params)
            yield forms_mod.check_form_identity(tf, params)
        gaps = forms_mod.near_optimizer_gaps([2, 4, 8], params)
        payload["near_optimizer_gaps"] = gaps
        decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
        yield make_result("near_optimizer_gap_decreasing",
                          0.0 if decreasing else 1.0, 0.0, gaps=gaps)

    return _run_checks(payload, checks(), budget)


if __name__ == "__main__":
    main()
