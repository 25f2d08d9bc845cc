"""Parameter-grid experiment harness: alpha sweeps, beta sweeps, joint
alpha-beta surfaces, and discretization sweeps, with per-cell repeats,
deterministic seed derivation, and long-format CSV export.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import product

import numpy as np

from .dataset import Dataset, DatasetError, check_field, check_fields, derive_seed, field_error, read_csv
from .dynamics import LoopConfig, NoiseParams, OrderMetrics, order_metrics, run_sonfis, run_sorst_as
from .pool import call, fork_pool, worker_count

# The sweep CSV's columns, in order, each with the type `load_csv_rows`
# parses it back with: the cell key, then the repeat's order metrics.
COLUMNS = {"alpha": float, "beta": float, "gamma": float, "extra": int, "repeat": int,
           "mean_NG": float, "std_NG": float, "mean_E": float, "regime": str}
CSV_HEADER = list(COLUMNS)


@dataclass(frozen=True)
class SweepSpec:
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    gammas: tuple[float, ...]
    extras: tuple[int, ...]  # n_rules (sonfis) or bin counts (sorst)
    repeats: int
    base_config: LoopConfig
    system: str = "sonfis"  # "sonfis" | "sorst"
    burn_in: int = 0

    # repeats bounds the length of a cell's list of repeats.
    FIELDS = {"repeats": (int, 1, sys.maxsize), "burn_in": (int, 0)}

    def __post_init__(self):
        if self.system not in ("sonfis", "sorst"):
            raise field_error("system", f"must be 'sonfis' or 'sorst', got {self.system!r}")
        # Each axis lists values of one parameter, checked as that parameter
        # is. Float entries keep their given form, so an integer alpha is
        # written to sweep.csv as `1`, not `1.0`; extras are stored as ints.
        extra = LoopConfig.FIELDS["n_rules" if self.system == "sonfis" else "bins"]
        axes = {"alphas": NoiseParams.FIELDS["alpha"], "betas": NoiseParams.FIELDS["beta"],
                "gammas": NoiseParams.FIELDS["gamma"], "extras": (int, *extra[1:])}
        for name, (kind, *bounds) in axes.items():
            vals = getattr(self, name)
            if not isinstance(vals, (list, tuple)) or not vals:
                raise field_error(name, "must be a non-empty list")
            checked = tuple(check_field(f"{name}[{i}]", v, kind, *bounds) for i, v in enumerate(vals))
            object.__setattr__(self, name, checked if kind is int else tuple(vals))
        check_fields(self)
        if self.burn_in >= self.base_config.iterations:
            raise field_error("burn_in", f"must be < iterations ({self.base_config.iterations}), "
                                         f"got {self.burn_in}")

    @cached_property
    def grid(self) -> tuple[tuple[float, float, float, int], ...]:
        """The (alpha, beta, gamma, extra) cells in sweep order, built once:
        every task reads its cell from it."""
        return tuple(product(self.alphas, self.betas, self.gammas, self.extras))


@dataclass
class CellResult:
    alpha: float
    beta: float
    gamma: float
    extra: int
    metrics: list[OrderMetrics]  # one per repeat
    error: str | None = None
    trajectories: list | None = None

    @property
    def std_NG_values(self) -> np.ndarray:
        return np.array([m.std_NG for m in self.metrics])

    def aggregate(self) -> dict:
        ngs = np.array([m.mean_NG for m in self.metrics])
        es = np.array([m.mean_E for m in self.metrics])
        return {
            "mean_NG": float(ngs.mean()),
            "std_of_mean_NG": float(ngs.std()),
            "mean_E": float(es.mean()),
            "std_of_mean_E": float(es.std()),
        }


@dataclass
class SweepResult:
    cells: list[CellResult]


def run_sweep(spec: SweepSpec, train: Dataset, test: Dataset,
              keep_trajectories: bool = False, error_fn=None, workers: int | None = None) -> SweepResult:
    """Execute every grid cell x repeat. Per-cell failures are recorded in
    the cell, never raised: a cell keeps its repeats up to the first that
    raised, and no later repeat of it runs. `error_fn` is the
    constant-error stub hook passed down to the dynamics loop.

    Each (cell, repeat) is one task, seeded by `derive_seed(seed, cell
    index, repeat)` alone, so the result is the same for any `workers`
    (`pool.worker_count`; capped at the task count). With more than one
    worker the tasks run in a `pool.fork_pool`, whose workers inherit the
    inputs and `error_fn`, so a lambda stub works; at most two tasks per
    worker are in flight; once the last is submitted the pool is shut down
    without waiting, so its workers exit as soon as the last result is in.
    Where fork is unavailable the tasks run in this process."""
    grid = spec.grid
    workers = min(worker_count(workers), len(grid) * spec.repeats)
    first_failed = [spec.repeats] * len(grid)  # repeat index; repeats when none failed
    outputs: dict[tuple[int, int], tuple] = {}

    def run_task(cell_index: int, rep: int):
        """One (cell, repeat): `(metrics, trajectory or None, None)`, or
        `(None, None, error)` when it raised. The loop runs on one worker,
        so a pooled sweep never starts a pool inside a pool."""
        alpha, beta, gamma, extra = grid[cell_index]
        seed = derive_seed(spec.base_config.seed, cell_index, rep)
        try:
            if spec.system == "sonfis":
                cfg, run = replace(spec.base_config, n_rules=extra, seed=seed), run_sonfis
            else:
                cfg, run = replace(spec.base_config, bins=extra, seed=seed), run_sorst_as
            traj = run(train, test, cfg, NoiseParams(alpha, beta, gamma), error_fn=error_fn, workers=1)
            return order_metrics(traj, burn_in=spec.burn_in), traj if keep_trajectories else None, None
        except Exception as exc:  # degenerate corners stay local to the cell
            return None, None, f"{type(exc).__name__}: {exc}"

    def tasks():
        for cell_index in range(len(grid)):
            rep = 0
            while rep < first_failed[cell_index]:  # re-read after every task
                yield cell_index, rep
                rep += 1

    def record(cell_index: int, rep: int, output) -> None:
        outputs[cell_index, rep] = output
        if output[2] is not None:
            first_failed[cell_index] = min(first_failed[cell_index], rep)

    pool = fork_pool(workers, run_task) if workers > 1 else None
    if pool is None:
        for task in tasks():
            record(*task, run_task(*task))
    else:
        from concurrent.futures import FIRST_COMPLETED, wait
        with pool:
            pending, todo = {}, tasks()
            while True:
                for task in todo:
                    pending[pool.submit(call, *task)] = task
                    if len(pending) >= 2 * workers:
                        break
                else:  # every task is submitted
                    pool.shutdown(wait=False)
                if not pending:
                    break
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    record(*pending.pop(future), future.result())

    cells: list[CellResult] = []
    for cell_index, (alpha, beta, gamma, extra) in enumerate(grid):
        runs = [outputs[cell_index, rep] for rep in range(first_failed[cell_index])]
        failed = first_failed[cell_index] < spec.repeats
        error = outputs[cell_index, first_failed[cell_index]][2] if failed else None
        trajs = [traj for _, traj, _ in runs] if keep_trajectories else None
        cells.append(CellResult(alpha, beta, gamma, extra, [m for m, _, _ in runs], error, trajs))
    return SweepResult(cells)


def cell_key(cell: CellResult, repeat: int) -> dict:
    """The parameters and repeat index that name one trajectory of a sweep."""
    return {"alpha": cell.alpha, "beta": cell.beta, "gamma": cell.gamma, "extra": cell.extra,
            "repeat": repeat}


def result_rows(result: SweepResult) -> list[dict]:
    """One row per (cell, repeat) that ran, keyed by `CSV_HEADER`: the rows
    `export_csv` writes."""
    rows = []
    for cell in result.cells:
        for rep, m in enumerate(cell.metrics):
            values = {**cell_key(cell, rep), **asdict(m)}
            rows.append({col: values[col] for col in CSV_HEADER})
    return rows


def export_csv(result: SweepResult, path) -> None:
    """Long format: one row per (cell, repeat)."""
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, CSV_HEADER)
        w.writeheader()
        w.writerows(result_rows(result))


def load_csv_rows(path) -> list[dict]:
    """Parse an exported sweep CSV back into typed row dicts. Besides what
    `dataset.read_csv` rejects, a header other than `CSV_HEADER`, a cell
    its column's type cannot parse, or no rows at all raise DatasetError,
    naming the row (1-based, excluding the header) and the column."""
    header, records = read_csv(path)
    if header != CSV_HEADER:
        raise DatasetError(f"{path}: unexpected sweep CSV header: {header}")
    rows = []
    for r, cells in records:
        row = {}
        for (col, parse), cell in zip(COLUMNS.items(), cells):
            try:
                row[col] = parse(cell)
            except ValueError:
                raise DatasetError(f"{path}: row {r}, column {col!r}: "
                                   f"expected {parse.__name__}, got {cell!r}") from None
        rows.append(row)
    if not rows:
        raise DatasetError(f"{path}: no sweep rows")
    return rows


def profile_from_rows(rows: list[dict], axis: str) -> dict:
    """Marginal mean_NG / std_NG along one swept parameter, over the axis
    values present in `rows` in ascending order (a failed repeat has no row),
    plus the value with the largest increase in std_NG from the value before
    it (the transition locus). The locus is flagged weak when the jump is
    not positive (a flat or falling profile, all-zero stds included) or is
    under 10% of the mean std."""
    if axis not in ("alpha", "beta", "gamma", "extra"):
        raise ValueError(f"unknown axis {axis!r}")
    if not rows:
        raise ValueError("no sweep rows to profile")
    values = sorted({row[axis] for row in rows})
    profile = []
    for v in values:
        sel = [row for row in rows if row[axis] == v]
        profile.append(
            {
                "value": v,
                "mean_NG": float(np.mean([r["mean_NG"] for r in sel])),
                "std_NG": float(np.mean([r["std_NG"] for r in sel])),
            }
        )
    stds = np.array([row["std_NG"] for row in profile])
    if len(stds) > 1:
        jumps = np.diff(stds)
        j = int(np.argmax(jumps))
        locus = values[j + 1]
        weak = bool(jumps[j] <= 0 or jumps[j] < 0.1 * float(stds.mean()))
    else:
        locus, weak = values[0], True
    return {"axis": axis, "profile": profile, "transition_locus": locus, "weak": weak}
