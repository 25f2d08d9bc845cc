"""Worker counts and the one fan-out to forked processes, `deal`, shared
by `sweep.run_sweep` (round-robin groups of its cell-and-repeat tasks) and
the loop in `dynamics` (round-robin groups of a certified-open segment's
steps).
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


_task = None  # what `_call` runs in a forked worker, set by `_init`


def _init(task) -> None:
    global _task
    _task = task


def _call(*args):
    """`task(*args)` in a worker of `fork_pool(workers, task)`."""
    return _task(*args)


def fork_pool(workers: int, task):
    """A `ProcessPoolExecutor` of `workers` forked processes, in which
    `pool.submit(_call, *args)` runs `task(*args)`; None where fork is
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


def deal(fn, groups: list, forked: int) -> list:
    """`[fn(g) for g in groups]`, in group order. A `fork_pool` of `forked`
    processes computes the last `forked` groups and this process the rest;
    one group, `forked` = 0 or a host without fork runs them all here.
    When this process computes groups of its own, the pool is shut down
    without waiting at its last submit, so its workers exit while this
    process computes (one whose group ends last outlives the call by the
    few ms of its exit); otherwise the pool is joined before the return."""
    here = len(groups) - forked
    pool = fork_pool(forked, fn) if len(groups) > 1 and forked else None
    if pool is None:
        return [fn(group) for group in groups]
    with pool:
        futures = [pool.submit(_call, group) for group in groups[here:]]
        if here:
            pool.shutdown(wait=False)
        return [fn(group) for group in groups[:here]] + [future.result() for future in futures]
