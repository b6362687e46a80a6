"""The package's worker pool: how many threads it may use and an ordered
map over them.  HARDYHEAT_THREADS is read here and nowhere else.

This module imports no numpy, so that the package can cap the BLAS threads
before numpy loads.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

_ENV = "HARDYHEAT_THREADS"
_MAX_WORKERS = 4      # threads of one radial build or planar sweep, at most


def cap_blas_threads() -> None:
    """Let HARDYHEAT_THREADS, when set, cap the BLAS/OpenMP threads.  The
    libraries read their thread count once, when numpy loads, so this runs
    before any numpy import."""
    if os.environ.get(_ENV):
        os.environ.setdefault("OMP_NUM_THREADS", os.environ[_ENV])


def workers() -> int:
    """Threads of the package's worker pool, which assembles a radial
    operator over its time nodes and runs a planar time integral over the
    grid times tau: HARDYHEAT_THREADS when set, otherwise the CPUs this
    process may run on; never more than those CPUs (more threads contend
    for the GIL: 4 on 2 CPUs ran slower than 1), nor more than _MAX_WORKERS."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    env = os.environ.get(_ENV, "").strip()
    n = int(env) if env.isdigit() else cpus
    return max(1, min(n, cpus, _MAX_WORKERS))


def ordered_map(fn, n: int, workers: int):
    """fn(0), ..., fn(n - 1), yielded in this order.

    With more than one worker they are computed on a thread pool that lives
    as long as the iteration; at most 2 * workers results are pending at a
    time.  With one worker they are computed inline, and no thread starts.
    """
    if workers <= 1:
        yield from map(fn, range(n))
        return
    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for k in range(n):
            pending.append(pool.submit(fn, k))
            if len(pending) >= 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
