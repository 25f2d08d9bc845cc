"""sonfis benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload alpha-sweep --seed 1 --seconds 30 --trace 0

`--trace 0` reports the end-to-end metrics with tracing off; `--trace 1`
reports the per-layer metrics of a traced run plus `trace.overhead_s`.
`wall_s` is the shortest of the run's back-to-back bodies, and
`iters_per_s` the fastest: every body does the same work, and on a shared
host other tenants only ever add time, in bursts of a few seconds, so the
fastest body is the steadiest estimate of the program's own cost. The
metric names, units and workloads are declared in BENCHMARK.json; what each
per-layer metric should move is in perfbench/layers.json. Human-readable
lines come first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

Every workload runs in a fresh Python process started with the BLAS thread
count pinned to `BLAS_THREADS`, so both sides of a comparison use the same
value. The program is imported from `src/` of the checkout; no build step
is needed for the NumPy backend.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("alpha-sweep", "sonfis-large", "sorst-cli")
BLAS_THREADS = 1
SETUP_PROBES = 9  # fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBE_LIMIT_S = 60
TIME_LIMIT_S = 170  # the whole run must end within 180 s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    return env


def setup_seconds(workload: str, seed: int, workdir: Path, env: dict) -> float:
    """Median wall time of fresh interpreters that import sonfis, select the
    kernel backend and build the workload's inputs. For sorst-cli it is the
    CLI process started with --help. One discarded probe comes first so the
    bytecode cache is warm."""
    if workload == "sorst-cli":
        cmd = [sys.executable, "-m", "sonfis.cli", "--help"]
    else:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
               "--workdir", str(workdir), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        # A blocking wait, since Popen.wait(timeout) polls in 50 ms steps;
        # the timer only stops a probe that hangs.
        timer = threading.Timer(SETUP_PROBE_LIMIT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return statistics.median(times[1:])


def spans_path(workload: str) -> Path:
    return ROOT / ".perfbench_out" / f"spans-{workload}.jsonl"


def run_worker(args, workdir: Path, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--spans", str(spans_path(args.workload))]
    # Own session, so a timeout also stops the CLI processes the worker started.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def commit() -> str:
    try:
        # The ceiling keeps git from reporting a repository above the checkout.
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def end_to_end(doc: dict, setup_s: float) -> dict[str, float]:
    walls = doc["walls"]
    return {
        "setup_s": setup_s,
        "wall_s": min(walls),
        "iters_per_s": max(p / w for p, w in zip(doc["points"], walls)),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024,
        "ok_frac": (doc["attempted"] - doc["failed"]) / doc["attempted"],
    }


def reference_status(workload: str, seed: int, digest: str) -> str:
    refs = json.loads((HERE / "reference.json").read_text())["outputs"].get(workload, {})
    if str(seed) not in refs:
        return "no reference for this seed"
    return "match" if refs[str(seed)] == digest else f"MISMATCH (reference {refs[str(seed)]})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "sonfis" / "__init__.py").is_file():
        print(f"error: no sonfis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    env = child_env()
    outroot = ROOT / ".perfbench_out"
    outroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outroot))
    try:
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed, workdir, env)
        doc = run_worker(args, workdir, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = doc["layers"] if args.trace else end_to_end(doc, setup_s)
    problems = list(doc["problems"]) + doc.get("self_checks", [])
    if len(doc["digests"]) != 1:
        problems.append(f"outputs differ between bodies (traced or not) of one run: {doc['digests']}")
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    if args.trace:
        mapped = json.loads((HERE / "layers.json").read_text())["per_layer"]
        if set(mapped) != set(units):
            problems.append(f"layers.json lacks or adds {sorted(set(mapped) ^ set(units))}")
    correct = not problems and doc["failed"] == 0

    env_doc = {**doc["env"], "nproc": len(os.sched_getaffinity(0)),
               "blas_threads": int(env["OPENBLAS_NUM_THREADS"]), "commit": commit()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env_doc, sort_keys=True))
    walls = doc["traced_walls"] if args.trace else doc["walls"]
    print(f"{len(walls)} {'traced ' if args.trace else ''}bodies, wall s: "
          + " ".join(f"{w:.4f}" for w in walls))
    for name, unit in units.items():
        print(f"  {name} = {metrics.get(name, float('nan')):.6g} {unit}")
    print(f"  failed_frac = {doc['failed'] / doc['attempted']:.6g} "
          f"({doc['failed']} of {doc['attempted']} trajectories)")
    if args.trace:
        print(f"spans written to {spans_path(args.workload)}")
    for digest in doc["digests"]:
        print(f"outputs sha256 {digest}: {reference_status(args.workload, args.seed, digest)}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
