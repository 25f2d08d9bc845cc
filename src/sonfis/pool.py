"""Worker counts and forked process pools, shared by `sweep.run_sweep`
(one task per sweep cell and repeat) and the loop in `dynamics` (one task
per group of a certified-open segment's steps).
"""

from __future__ import annotations

import os

from .dataset import check_field


def worker_count(workers: int | None) -> int:
    """`workers` checked as an integer >= 1; by default, one per CPU this
    process may run on."""
    if workers is None:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else os.cpu_count() or 1
    return check_field("workers", workers, int, 1)


_task = None  # what `call` runs in a forked worker, set by `_init`


def _init(task) -> None:
    global _task
    _task = task


def call(*args):
    """`task(*args)` in a worker of `fork_pool(workers, task)`."""
    return _task(*args)


def fork_pool(workers: int, task):
    """A `ProcessPoolExecutor` of `workers` forked processes, in which
    `pool.submit(call, *args)` runs `task(*args)`; None where fork is
    unavailable. The workers inherit `task` and all it refers to, rather
    than receive them pickled, so a closure or a lambda works; only the
    arguments and results are pickled. A fork pool starts every worker at
    its first submit, before it starts its own thread. `concurrent.futures`
    is imported here, so that importing sonfis does not load it."""
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), initializer=_init,
                               initargs=(task,))
