"""One round of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so the set-up time runs
from process start until hardyheat and its dependencies are imported.
Prints one JSON object with the round's figures as its last line.
"""

import os

# BLAS and OpenMP read these once, when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import hardyheat  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    setup_s = time.monotonic() - spawned
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    failed, rejected, worst = [], [], 0.0
    t0 = time.perf_counter()
    ops = workloads.WORKLOADS[name](seed)
    for label, op in ops:
        try:
            ok, defect = op()
        except Exception:   # a failed operation is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            failed.append(label)
            continue
        if not ok:
            rejected.append(label)
        if defect is not None:
            worst = max(worst, defect)
    wall_s = time.perf_counter() - t0

    for label in failed + rejected:
        print(f"{'error' if label in failed else 'wrong'}: {label}", file=sys.stderr)
    out = {
        "package": os.path.dirname(hardyheat.__file__),
        "attempted": len(ops),
        "failed": len(failed) + len(rejected),
        "rejected": len(rejected),
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_rel_defect": worst,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        os.makedirs(".perfbench", exist_ok=True)
        tracer.write(os.path.join(".perfbench", f"trace-{name}-seed{seed}-pid{os.getpid()}.jsonl"))
        out["layers"] = spans.layer_metrics(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
