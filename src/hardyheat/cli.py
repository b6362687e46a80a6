"""Command-line front end: parameter entry, suite orchestration, CSV/JSON
emission, and the exit-code contract (0 pass, 1 check failure, 2 usage or
domain error, 3 budget exceeded).

Output files are deterministic: identical configuration and seed produce
byte-identical bytes.  Wall-clock fields are therefore never serialized.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, is_dataclass

import click
import numpy as np

from . import forms as forms_mod
from .duhamel import QuadratureConfig, tilde_p
from .errors import BudgetExceededError, DomainError, HardyHeatError
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


# ---------------------------------------------------------------------------
# Serialization helpers


def _clean(obj):
    """Recursively convert to plain JSON types, rounding floats to 17
    significant digits and dropping wall-clock fields."""
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = asdict(obj)
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items() if k != "runtime"}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.17g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit_json(payload: dict, output: str | None) -> None:
    doc = {"schema": 1}
    doc.update(_clean(payload))
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    _write(text, output)


def _emit_csv(header: list, rows: list, output: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            f"{v:.10g}" if isinstance(v, (float, np.floating)) else str(v)
            for v in row))
    _write("\n".join(lines) + "\n", output)


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_point(value: str) -> tuple:
    try:
        parts = tuple(float(v) for v in value.split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse point {value!r}")
    if len(parts) not in (2, 3):
        raise click.UsageError(f"points must have 2 or 3 coordinates: {value!r}")
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
    for tag in ("supercritical", "subcritical"):
        if kappa.startswith(tag + ":"):
            factor = float(kappa.split(":", 1)[1])
            return ModelParams.from_kappa(d, alpha, factor * ks)
    return ModelParams.from_kappa(d, alpha, float(kappa))


class Budget:
    """Cooperative wall-clock budget shared by suite loops."""

    def __init__(self, seconds: float | None):
        self.seconds = seconds
        self.start = time.time()

    def check(self) -> None:
        if self.seconds is not None and time.time() - self.start > self.seconds:
            raise BudgetExceededError(
                f"budget of {self.seconds:.0f}s exceeded")


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


def _output_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                      default="json", show_default=True)(fn)
    fn = click.option("--output", type=click.Path(dir_okay=False),
                      default=None, help="write to a file instead of stdout")(fn)
    fn = click.option("--budget", type=float, default=None,
                      help="abort with exit 3 after this many seconds")(fn)
    return fn


@click.group()
def main():
    """Heat kernel of the fractional Laplacian with a critical Hardy
    potential: construction and verification suites."""


def _run(fn):
    """Run a command body with the exit-code contract applied."""
    try:
        code = fn()
    except (click.UsageError, DomainError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    except BudgetExceededError as exc:
        click.echo(f"budget: {exc}", err=True)
        sys.exit(EXIT_BUDGET)
    except HardyHeatError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_FAIL)
    sys.exit(code)


def _run_checks(payload: dict, checks, budget: float | None,
                output: str | None) -> int:
    """Collect the CheckResults that checks yields into payload["results"],
    checking the budget after each one, then emit the payload with its
    overall status.  On an exceeded budget the partial payload is emitted
    before the error propagates."""
    bud = Budget(budget)
    results = payload["results"] = []
    try:
        for res in checks:
            results.append(res)
            bud.check()
    except BudgetExceededError:
        payload["status"] = "budget_exceeded"
        _emit_json(payload, output)
        raise
    ok = all(r.status == "pass" for r in results)
    payload["status"] = "pass" if ok else "fail"
    _emit_json(payload, output)
    return EXIT_PASS if ok else EXIT_FAIL


@main.command()
@_model_options
@click.option("--beta", type=float, default=None,
              help="weight exponent: print the matching coupling")
@click.option("--kappa", type=float, default=None,
              help="coupling: print the matching origin exponent")
@click.option("--kappa-star", "star", is_flag=True,
              help="print the critical coupling")
@click.option("--curve", type=int, default=None,
              help="emit an N-row CSV of the coupling curve")
@_output_options
def kappa(d, alpha, beta, kappa, star, curve, fmt, output, budget):
    """The coupling curve beta -> kappa(beta) and its inverse."""
    def body():
        chosen = sum(v is not None and v is not False
                     for v in (beta, kappa, curve)) + int(star)
        if chosen != 1:
            raise click.UsageError(
                "choose exactly one of --beta / --kappa / --kappa-star / --curve")
        if star:
            click.echo(f"{kappa_star(d, alpha):.10g}")
        elif beta is not None:
            click.echo(f"{kappa_of_beta(d, alpha, beta):.10g}")
        elif kappa is not None:
            click.echo(f"{delta_of_kappa(d, alpha, kappa):.10g}")
        else:
            rows = kappa_curve(d, alpha, curve)
            _emit_csv(["beta", "kappa_beta"],
                      [tuple(row) for row in rows], output)
        return EXIT_PASS
    _run(body)


@main.command()
@_model_options
@click.option("--t", type=float, required=True)
@click.option("--x", type=str, required=True, help="point, e.g. 1,0")
@click.option("--y", type=str, required=True)
@_output_options
def kernel(d, alpha, t, x, y, fmt, output, budget):
    """Evaluate the free stable kernel p(t, x, y)."""
    def body():
        xp = np.asarray(_parse_point(x))
        yp = np.asarray(_parse_point(y))
        kv = free_kernel(t, xp - yp, d, alpha)
        _emit_json({"value": kv.value, "abs_error": kv.abs_error,
                    "method": kv.method.value}, output)
        return EXIT_PASS
    _run(body)


@main.command()
@_model_options
@_coupling_options
@click.option("--t", type=float, required=True)
@click.option("--x", type=str, required=True)
@click.option("--y", type=str, required=True)
@click.option("--rel-tol", type=float, default=1e-3, show_default=True)
@click.option("--max-terms", type=int, default=60, show_default=True)
@_output_options
def series(d, alpha, kappa, delta, t, x, y, rel_tol, max_terms, fmt,
           output, budget):
    """Evaluate the perturbed kernel by its perturbation series."""
    def body():
        params = _parse_kappa(d, alpha, kappa, delta)
        cfg = QuadratureConfig(rel_tol=rel_tol, max_terms=max_terms)
        state = tilde_p(t, _parse_point(x), _parse_point(y), params, cfg)
        _emit_json({"value": state.value, "terms": list(state.terms),
                    "tail_bound": state.tail_bound,
                    "converged": state.converged}, output)
        return EXIT_PASS
    _run(body)


@main.command()
@_model_options
@_coupling_options
@click.option("--t", type=float, required=True)
@click.option("--x", type=str, required=True)
@click.option("--beta", type=float, required=True,
              help="weight exponent of the estimated integral")
@click.option("--paths", type=int, default=10000, show_default=True)
@click.option("--steps", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=12345, show_default=True)
@_output_options
def mc(d, alpha, kappa, delta, t, x, beta, paths, steps, seed, fmt,
       output, budget):
    """Monte Carlo estimate of the weighted kernel integral."""
    def body():
        params = _parse_kappa(d, alpha, kappa, delta)
        cfg = McConfig(n_paths=paths, n_steps=steps, seed=seed)
        est = feynman_kac(_parse_point(x), t, beta, params, cfg)
        _emit_json({"mean": est.mean, "std_error": est.std_error,
                    "ess": est.ess, "capped_fraction": est.capped_fraction,
                    "seed": seed}, output)
        return EXIT_PASS
    _run(body)


@main.command()
@_model_options
@_coupling_options
@click.option("--suite",
              type=click.Choice(["invariance", "supermedian", "chapman",
                                 "blowup", "all"]),
              required=True)
@click.option("--paths", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, default=12345, show_default=True)
@_output_options
def verify(d, alpha, kappa, delta, suite, paths, seed, fmt, output, budget):
    """Run an identity/bound verification suite."""
    def body():
        params = _parse_kappa(d, alpha, kappa, delta)
        payload = {"suite": suite}
        if suite == "blowup":
            report = blowup_probe(1.0, (1.0, 0.0), (-1.0, 0.0), params)
            ok = report.diverged if params.kappa > kappa_star(d, alpha) \
                else report.converged
            payload.update(results=[], report=report,
                           status="pass" if ok else "fail")
            _emit_json(payload, output)
            return EXIT_PASS if ok else EXIT_FAIL

        def checks():
            if suite in ("invariance", "all"):
                beta = 0.25 * params.delta
                yield check_invariance(beta, 1.0, (1.0, 0.0), params)
                t0 = time.time()
                est = fk_invariance_defect((1.0, 0.0), 1.0, beta, params,
                                           McConfig(n_paths=paths, seed=seed))
                yield make_result("invariance_mc", abs(est.mean),
                                  3.0 * est.std_error, t0, mean=est.mean,
                                  std_error=est.std_error)
            if suite in ("supermedian", "all"):
                for t, rx in ((1.0, 1.0), (1.0, 0.1), (4.0, 1.0)):
                    yield check_supermedian(t, (rx, 0.0), params)
                yield check_H_supermedian(1.0, (1.0, 0.0), params)
            if suite in ("chapman", "all"):
                yield check_chapman_kolmogorov(0.5, 0.5, (1.0, 0.0),
                                               (0.0, 1.0), params)

        return _run_checks(payload, checks(), budget, output)
    _run(body)


@main.command()
@_model_options
@_coupling_options
@click.option("--refine", type=float, default=1.25, show_default=True,
              help="grid refinement factor for the drift estimate")
@_output_options
def bounds(d, alpha, kappa, delta, refine, fmt, output, budget):
    """Two-sided estimate scan: comparability constants and origin slope."""
    def body():
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
            _emit_csv(["t", "radius", "angle", "ratio"], rows, output)
        else:
            _emit_json({"bounds": report, "continuity": cont}, output)
        ok = (report.refinement_drift < 0.10
              and abs(report.slope - report.slope_target) <= 0.02)
        return EXIT_PASS if ok else EXIT_FAIL
    _run(body)


@main.command()
@_model_options
@_coupling_options
@_output_options
def form(d, alpha, kappa, delta, fmt, output, budget):
    """Dirichlet-form suite: Hardy inequality and the form identity on the
    test-function corpus, plus the near-optimizer family."""
    def body():
        params = _parse_kappa(d, alpha, kappa, delta)
        payload = {}

        def checks():
            for tf in forms_mod.load_corpus(d, alpha):
                yield forms_mod.check_hardy(tf, params)
                yield forms_mod.check_form_identity(tf, params)
            t0 = time.time()
            gaps = forms_mod.near_optimizer_gaps([2, 4, 8], params)
            payload["near_optimizer_gaps"] = gaps
            decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
            yield make_result("near_optimizer_gap_decreasing",
                              0.0 if decreasing else 1.0, 0.0, t0, gaps=gaps)

        return _run_checks(payload, checks(), budget, output)
    _run(body)


if __name__ == "__main__":
    main()
