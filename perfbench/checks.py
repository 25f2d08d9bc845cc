"""Correctness checks that do not call the program.

A trajectory passes when it replays under the update law
N_{t+1} = clamp(floor(alpha*N_t + beta*E_t + gamma), n_min, n_max), its grid
is the most-square split of N, 1 <= live_granules <= N, every E is finite
and >= 0, and, for sweeps, its sweep.csv row exists and agrees with it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

from workloads import Law, Outputs


def most_square(N: int) -> tuple[int, int]:
    n1 = max(d for d in range(1, math.isqrt(N) + 1) if N % d == 0)
    return n1, N // n1


def trajectory_problems(traj: dict, law: Law) -> list[str]:
    alpha, beta, gamma = traj["alpha"], traj["beta"], traj["gamma"]
    points = traj["points"]
    where = f"alpha={alpha} extra={traj['extra']} repeat={traj['repeat']}"
    if [p[0] for p in points] != list(range(1, law.iterations + 1)):
        return [f"{where}: steps are not 1..{law.iterations}"]
    problems = []
    expected_N = law.initial_N
    for t, N, n1, n2, live, E, _extra in points:
        if N != expected_N:
            problems.append(f"{where} t={t}: N={N}, update law gives {expected_N}")
        if (n1, n2) != most_square(N):
            problems.append(f"{where} t={t}: grid {n1}x{n2} is not the most-square split of {N}")
        if not 1 <= live <= N:
            problems.append(f"{where} t={t}: live_granules={live} outside [1, {N}]")
        if not (math.isfinite(E) and E >= 0):
            problems.append(f"{where} t={t}: E={E!r} is not finite and >= 0")
        raw = alpha * N + beta * E + gamma
        expected_N = min(max(math.floor(raw), law.n_min), law.n_max)
    return problems


def _row_problems(traj: dict, row: dict, law: Law) -> list[str]:
    kept = traj["points"][law.burn_in:]
    mean_NG = math.fsum(p[1] for p in kept) / len(kept)
    mean_E = math.fsum(p[5] for p in kept) / len(kept)
    problems = []
    if not math.isclose(float(row["mean_NG"]), mean_NG, rel_tol=1e-12):
        problems.append(f"sweep.csv mean_NG {row['mean_NG']} != {mean_NG!r} from the trajectory")
    if not math.isclose(float(row["mean_E"]), mean_E, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"sweep.csv mean_E {row['mean_E']} != {mean_E!r} from the trajectory")
    return problems


def _key(d: dict) -> tuple:
    return float(d["alpha"]), float(d["beta"]), float(d["gamma"]), int(d["extra"]), int(d["repeat"])


def failed_trajectories(out: Outputs, law: Law) -> tuple[int, list[str]]:
    """Number of the body's attempted trajectories that are missing or fail
    a check, and the problems found."""
    problems = list(out.errors)
    rows = None
    if out.csv_text is not None:
        parsed = list(csv.DictReader(io.StringIO(out.csv_text)))
        rows = {_key(r): r for r in parsed}
        if len(parsed) != out.expected:
            problems.append(f"sweep.csv has {len(parsed)} rows, grid x repeats is {out.expected}")
            return out.expected, problems
    passed = set()
    for traj in out.trajectories:
        found = trajectory_problems(traj, law)
        if rows is not None and not found:
            row = rows.get(_key(traj))
            found = _row_problems(traj, row, law) if row else [f"{_key(traj)} missing from sweep.csv"]
        if found:
            problems.extend(found)
        else:
            passed.add(_key(traj))
    return out.expected - min(len(passed), out.expected), problems


def digest(out: Outputs) -> str:
    """sha256 over the trajectories and the sweep CSV."""
    h = hashlib.sha256(json.dumps(out.trajectories, sort_keys=True).encode())
    h.update((out.csv_text or "").encode())
    return h.hexdigest()
