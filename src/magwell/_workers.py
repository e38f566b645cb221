"""Where the items of the h sweep are solved: side by side in forked worker
processes, or one after another in process.

`model2d.run_sweep` solves its h through `solved`, and one rule,
`sweep_workers`, decides where. When BLAS runs one thread, the sweep gets
one forked worker per usable core, at most one per item. Otherwise it runs
in process. Results and errors are read in item order, as in process; the
h sweep carries its warnings back in its results. The k sweeps of the CLI
do not come here: one k costs milliseconds of 1D work, less than a pool
costs to start, so they run in process.

Everything is pure and immutable after construction, so sweeps are safe to
run concurrently in separate processes. Threads are another matter: they
must not share `model2d.run_sweep` or `asymptotics.build_forecast`. Both
enter `warnings.catch_warnings`, which swaps the process-wide warning state
and is not thread-safe. The workers inherit the task through `fork`, so it
may be any callable, a lambda or closure included, such as an h sweep's
config whose `omega` is a closure. The workers are joined before the sweep
returns or raises.
"""
from __future__ import annotations

import contextlib
import os
import sys
from functools import partial
from typing import Callable, Hashable, Optional, Sequence


def _env_threads(*names: str) -> Optional[int]:
    """The first positive integer among the environment variables `names`,
    read in order as BLAS libraries read their thread counts."""
    for name in names:
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


def sweep_workers(n_items: int) -> int:
    """Processes that solve the n_items items of a sweep side by side.

    One per usable core, at most one per item, when BLAS runs one thread:
    both OpenBLAS (OPENBLAS_NUM_THREADS, else GOTO_NUM_THREADS, else
    OMP_NUM_THREADS) and MKL (MKL_NUM_THREADS, else OMP_NUM_THREADS) read 1.
    Otherwise 1, in process: under BLAS's default threading each worker
    starts one BLAS thread per core, and the workers' threads contend for
    the cores. On a 2-core machine the default seven-h k=1 sweep
    (`run_sweep`) took 33.6 s, and 231 s in a second run, on a forced
    two-worker pool under the default OpenBLAS threading, against 7.1 to
    7.2 s in process; with BLAS pinned to one thread it took 5.0 to 5.9 s
    in process and 2.7 to 3.0 s on the pool (wall times). Also 1 where
    `os.fork` or `os.sched_getaffinity` is missing.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if (_env_threads("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS") != 1
            or _env_threads("MKL_NUM_THREADS", "OMP_NUM_THREADS") != 1):
        return 1
    return min(n_items, len(os.sched_getaffinity(0)))


_fork_task: Optional[Callable] = None    # set in each worker process


def _set_fork_task(task: Callable) -> None:
    global _fork_task
    _fork_task = task


def _run_fork_task(item):
    return _fork_task(item)


@contextlib.contextmanager
def solved(solve: Callable, items: Sequence[Hashable]):
    """Calls that each return `solve(item)`, or raise its error, for the
    items in that order.

    With more than one `sweep_workers`, the items are solved side by side
    in a pool of forked processes, the smallest item first: for the h
    sweep, the largest grid. Otherwise each call solves its item in
    process. Leaving the block cancels the items not yet started and joins
    the workers. Processes, not threads, though SuperLU releases the GIL
    while it factors (two factors of the k=1 even block at h = 0.0043,
    68,110 unknowns, took 0.81 s one after the other and 0.48 s on two
    threads; scipy 1.17.1, one BLAS thread, 2 cores): the h sweep enters
    `warnings.catch_warnings`, which changes the warning state of the whole
    process, and two live factors in one process would add their memory
    peaks, where the sweep's peak RSS (`ru_maxrss`) is that of the largest
    single process.
    """
    workers = sweep_workers(len(items))
    if workers == 1:
        yield [partial(solve, item) for item in items]
        return
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor
    # each worker flushes its copy of the standard streams' buffers when it
    # exits, so text still buffered here would be written once per worker
    # (the fork start method of CPython flushes them too; this does not
    # rely on it)
    sys.stdout.flush()
    sys.stderr.flush()
    # fork hands `solve` to the workers unpickled; with one BLAS thread the
    # parent holds no BLAS threads across the fork
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_fork_task, initargs=(solve,))
    try:
        futures = {item: pool.submit(_run_fork_task, item)
                   for item in sorted(items)}
        yield [futures[item].result for item in items]
    finally:
        pool.shutdown(cancel_futures=True)
