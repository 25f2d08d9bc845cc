"""Worker counts and the one fan-out to forked processes, `deal`, shared
by `sweep.run_sweep` (round-robin groups of its cell-and-repeat tasks) and
the loop in `dynamics` (round-robin groups of a certified-open segment's
steps).
"""

from __future__ import annotations

import os
import pickle

from .dataset import check_field

_fork = getattr(os, "fork", None)  # None where the platform cannot fork


def worker_count(workers: int | None) -> int:
    """`workers` checked as an integer >= 1; by default, one per CPU this
    process may run on."""
    if workers is None:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else os.cpu_count() or 1
    return check_field("workers", workers, int, 1)


def _outcome(fn, group) -> bytes:
    """`fn(group)` pickled as `(True, result)`, or what it raised as
    `(False, error)`. An error that does not survive pickling travels as a
    RuntimeError naming its type."""
    try:
        return pickle.dumps((True, fn(group)), pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:  # the caller re-raises it
        try:
            blob = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            pickle.loads(blob)  # an error may pickle and still not unpickle
            return blob
        except Exception:
            return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")), pickle.HIGHEST_PROTOCOL)


def _start(fn, group):
    """A forked process computing `fn(group)`: its pid, and the read end of
    the pipe that carries its `_outcome` and then EOF."""
    r, w = os.pipe()
    try:
        pid = _fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the child never returns into the caller's stack
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pipe.write(_outcome(fn, group))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _result(pipe):
    """The value a child's pipe carries, read to EOF, or its error raised."""
    with pipe:
        blob = pipe.read()
    if not blob:
        raise RuntimeError("a forked group ended without a result")
    ok, value = pickle.loads(blob)
    if not ok:
        raise value
    return value


def deal(fn, groups: list, forked: int) -> list:
    """`[fn(g) for g in groups]`, in group order. `forked` processes, one
    per group, compute the last `forked` groups and this process the rest;
    one group, `forked` = 0 or a host without fork runs them all here. The
    children inherit `fn` and all it refers to, so a closure or a lambda
    works; only results and errors are pickled, each through its own pipe.
    This process computes its groups, then reads the pipes in group order;
    a child's error, or a child that ends without a result, raises here.
    Every child is reaped before `deal` returns or raises, also when a
    group of this process raises: the pipes not yet read are then closed,
    so each child left exits once its group is done, its result dropped."""
    here = len(groups) - forked
    if len(groups) < 2 or not forked or _fork is None:
        return [fn(group) for group in groups]
    children = []
    try:
        for group in groups[here:]:
            children.append(_start(fn, group))
        return [fn(group) for group in groups[:here]] + [_result(pipe) for _, pipe in children]
    finally:
        # Every pipe closes before any wait: a later child also holds the
        # read ends of earlier pipes, and blocks on its own full pipe.
        for _, pipe in children:
            pipe.close()
        for pid, _ in children:
            os.waitpid(pid, 0)
