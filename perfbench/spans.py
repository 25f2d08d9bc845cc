"""In-memory span recorder that wraps module attributes from outside the
program.

A span records its name, start, end, the span that was open when it began
(its parent) and the trajectory it belongs to. A span opened with
`trajectory=True` starts a new trajectory id; every other span inherits
its parent's. Spans stay in memory until `write_jsonl` is called.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    trajectory: int | None = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trajectories = 0
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def _open(self, name: str, trajectory: bool) -> int:
        parent = self._stack[-1] if self._stack else None
        if trajectory:
            traj = self._trajectories
            self._trajectories += 1
        else:
            traj = self.spans[parent].trajectory if parent is not None else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, trajectory=traj))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, error: str | None = None) -> None:
        span = self.spans[self._stack.pop()]
        span.end = time.perf_counter()
        span.error = error

    def wrap(self, owner, attr: str, name: str, after=None, trajectory: bool = False) -> None:
        """Replace `owner.attr` with a wrapper that records one span per
        call. `after(args, result)` runs once the span is closed."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name, trajectory)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, type(exc).__name__)
                raise
            self._close(idx)
            if after is not None:
                after(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> list[str]:
        """Put back every wrapped attribute; return the ones that are not
        the original object afterwards (empty when all were restored)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{owner.__name__}.{attr}" for owner, attr, original in self._patches
                if getattr(owner, attr) is not original]
        self._patches.clear()
        return left

    def self_times(self, first: int = 0) -> list[float]:
        """Self time of each span from index `first` on: its duration minus
        the time its child spans cover."""
        covered = [0.0] * (len(self.spans) - first)
        for span in self.spans[first:]:
            if span.parent is not None and span.parent >= first:
                covered[span.parent - first] += span.duration
        return [span.duration - c for span, c in zip(self.spans[first:], covered)]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name,
                    "start": span.start - self._origin,
                    "end": span.end - self._origin,
                    "parent": span.parent,
                    "trajectory": span.trajectory,
                    "error": span.error,
                }) + "\n")
