"""Runs one workload in a fresh process and prints one JSON line of raw
results for `run.py`.

Untraced mode times workload bodies back to back until the time budget is
spent (at least `MIN_BODIES`). Traced mode alternates an untraced and a
traced body, both in this process and both rebuilding their inputs, so the
difference between the two is the cost of the wrappers alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
from layers import Layers
from sonfis import kernels
from spans import Tracer
from workloads import WORKLOADS, Outputs

MIN_BODIES = 2
SELF_TIME_SLACK_S = 1e-6  # float rounding when summing span self times


class Run:
    """Per-invocation tallies shared by every body of one workload."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.wl = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.bodies = 0

    def body(self, inputs, in_process: bool, rebuild: bool = False):
        """Time one body, then check and hash what it produced. Returns
        (wall seconds, trajectory points completed, Outputs)."""
        outdir = self.workdir / f"body{self.bodies}"
        outdir.mkdir()
        self.bodies += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            if rebuild:
                inputs = self.wl.build(self.seed, outdir)
            raw = self.wl.run(inputs, outdir, in_process)
            wall = time.perf_counter() - t0
            out = self.wl.collect(inputs, raw, outdir)
        except Exception as exc:  # a body that raises fails all its trajectories
            wall = time.perf_counter() - t0
            out = Outputs([], self.wl.expected, errors=[repr(exc)])
        failed, problems = checks.failed_trajectories(out, self.wl.law)
        self.attempted += out.expected
        self.failed += failed
        self.problems.extend(problems)
        self.digests.append(checks.digest(out))
        shutil.rmtree(outdir)
        return wall, sum(len(t["points"]) for t in out.trajectories), out

    def result(self, **extra) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:20],
            "digests": sorted(set(self.digests)),
            "env": {
                "backend": kernels.BACKEND,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "openblas": _openblas_version(),
            },
            **extra,
        }


def _openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def untraced(run: Run, seconds: float) -> dict:
    inputs = run.wl.build(run.seed, run.workdir)
    walls, points, rss = [], [], []
    start = time.perf_counter()
    while True:
        wall, n_points, out = run.body(inputs, in_process=False)
        walls.append(wall)
        points.append(n_points)
        if out.child_rss_kb is not None:
            rss.append(out.child_rss_kb)
        if len(walls) >= MIN_BODIES and time.perf_counter() - start + wall > seconds:
            break
    peak_kb = statistics.median(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return run.result(walls=walls, points=points, peak_rss_kb=peak_kb)


def traced(run: Run, seconds: float, spans_path: Path) -> dict:
    tracer = Tracer()
    layers = Layers(tracer)
    plain_walls, traced_walls, over_wall = [], [], []
    start = time.perf_counter()
    while True:
        wall, _, _ = run.body(None, in_process=True, rebuild=True)
        plain_walls.append(wall)
        first = len(tracer.spans)
        layers.wrap_all()
        try:
            wall, _, _ = run.body(None, in_process=True, rebuild=True)
        finally:
            not_restored = tracer.restore()
        traced_walls.append(wall)
        if sum(tracer.self_times(first)) > wall + SELF_TIME_SLACK_S:
            over_wall.append(wall)
        if not_restored or time.perf_counter() - start + plain_walls[-1] + wall > seconds:
            break
    tracer.write_jsonl(spans_path)
    self_checks = []
    if not_restored:
        self_checks.append(f"wrapped attributes not restored: {not_restored}")
    if over_wall:
        self_checks.append(f"layer self times exceed traced wall_s in {len(over_wall)} bodies")
    metrics = layers.metrics(len(traced_walls))
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return run.result(layers=metrics, self_checks=self_checks,
                      traced_walls=traced_walls, plain_walls=plain_walls)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None, help="JSONL file for the traced spans")
    ap.add_argument("--setup-only", action="store_true", help="build the inputs and exit")
    args = ap.parse_args()
    run = Run(WORKLOADS[args.workload], args.seed, args.workdir)
    if args.setup_only:
        run.wl.build(args.seed, args.workdir)
        return
    doc = traced(run, args.seconds, args.spans) if args.trace else untraced(run, args.seconds)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
