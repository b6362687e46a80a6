"""Benchmark entry point; run it from the root of a hardyheat checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs the whole workload in a fresh worker process (engine caches
and lru_cache tables start empty, BLAS and OpenMP are pinned to one thread
before numpy loads).  Rounds repeat until S seconds have passed, so a run
measures whole rounds.  The machine is printed on one line, and the last
line is the result: with --trace 0 the end-to-end metrics of BENCHMARK.json,
medians over the rounds (max_rel_defect is the worst round); with --trace 1
its per-layer metrics from a traced round, wrapped from outside the package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170.0      # no new round starts if it could end after this


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _round(args, env, timeout: float) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, args.workload, str(args.seed),
         str(args.trace), repr(spawned)],
        env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        return _fail("the seed must be nonnegative")

    src = os.path.abspath("src")
    package = os.path.join(src, "hardyheat")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        return _fail("run from the root of a hardyheat checkout (no src/hardyheat)")
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # every round compiles the same

    rounds = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        try:
            r = _round(args, env, RUN_LIMIT_S - elapsed)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            return _fail(f"round {len(rounds) + 1} failed: {exc}")
        if r["package"] != package:
            return _fail(f"benchmarked {r['package']}, expected {package}")
        rounds.append(r)
        elapsed = time.monotonic() - start
        last = elapsed / len(rounds)
        if elapsed >= args.seconds or elapsed + 1.5 * last > RUN_LIMIT_S:
            break

    if args.trace:
        values = {k: statistics.median(r["layers"][k] for r in rounds)
                  for k in rounds[0]["layers"]}
        print(f"traced wall_s {statistics.median(r['wall_s'] for r in rounds):.4f}",
              file=sys.stderr)
    else:
        values = {k: statistics.median(r[k] for r in rounds)
                  for k in ("wall_s", "setup_s", "peak_rss_mb")}
        values["max_rel_defect"] = max(r["max_rel_defect"] for r in rounds)
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        return _fail(f"no figure for {missing}")

    print("machine: " + json.dumps({
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": rounds[0]["numpy"],
        "scipy": rounds[0]["scipy"], "rounds": len(rounds)}))
    print(json.dumps({
        "correct": all(r["rejected"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
