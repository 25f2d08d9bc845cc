"""The coupled two-layer loop: the neuron-growth feedback law
N_{t+1} = alpha*N_t + beta*E_t + gamma drives the SOM granularity, while the
second layer (fuzzy system or rough rule set) supplies the error E_t measured
on the test data at each close-open iteration.

Rounding note: the raw update is clamped to [n_min, n_max], then floored.
Floor is the one rounding whose fixed band stays within one unit of the
affine map's fixed point (beta*E + gamma) / (1 - alpha); half-up rounding
widens the band to ~1/(1 - alpha) and would park the trajectory far above it.
The bounds are integers, so clamping first gives the same integers as
flooring first for every finite raw value, and maps an infinite one to n_max.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import kernels, nfis, rst
from .dataset import Dataset, check_field, check_fields, derive_seed
from .nfis import NfisTrainParams
from .pool import deal, worker_count
from .som import MAX_NEURONS, SomParams, extract_granules, grid_dims, train_som, train_som_stack  # noqa: F401

# `train_som` is imported only so that `dynamics.train_som` still resolves:
# perfbench/layers.py wraps it by that name on every traced workload.


@dataclass(frozen=True)
class NoiseParams:
    """The update law's connectivity parameters; the defaults are the
    paper's baseline."""
    alpha: float = 0.9
    beta: float = 0.001
    gamma: float = 0.5

    FIELDS = {"alpha": (float, 0.0), "beta": (float, 0.0), "gamma": (float, None)}

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class LoopConfig:
    """All a run reads besides its data and noise, named by the config
    file's keys. `bins`: one SORST-AS bin count, or a tuple of one per step."""
    iterations: int = 30
    n_rules: int = 2
    bins: int | tuple[int, ...] = 3
    n_min: int = 4
    n_max: int = 400
    initial_N: int = 100
    seed: int = 0
    som: SomParams = field(default_factory=SomParams)
    nfis: NfisTrainParams = field(default_factory=NfisTrainParams)

    # Kind `tuple` is one integer or a tuple of them. iterations bounds a step
    # list's length; n_max and bins count the neurons of one SOM.
    FIELDS = {"iterations": (int, 1, sys.maxsize), "n_rules": (int, 1), "bins": (tuple, 2, MAX_NEURONS),
              "n_min": (int, 2), "n_max": (int, 2, MAX_NEURONS), "initial_N": (int, 1), "seed": (int, 0)}

    def __post_init__(self):
        check_fields(self)
        if self.n_max < self.n_min:
            raise ValueError("n_max must be >= n_min")
        if not (self.n_min <= self.initial_N <= self.n_max):
            raise ValueError("initial_N must lie within [n_min, n_max]")
        if isinstance(self.bins, tuple) and len(self.bins) != self.iterations:
            raise ValueError(f"bins must list one count per iteration ({self.iterations}), "
                             f"got {len(self.bins)}")


@dataclass(frozen=True)
class TrajectoryPoint:
    """One step of a run. The fields, in order, are the trajectory CSV's
    columns and the report's point keys."""
    t: int
    N: int
    n1: int  # SOM grid rows
    n2: int  # SOM grid columns
    live_granules: int
    E: float
    extra: int  # rule count (SONFIS) or bin count (SORST-AS) used at t

    @property
    def dims(self) -> tuple[int, int]:
        return self.n1, self.n2


@dataclass
class Trajectory:
    points: list[TrajectoryPoint]
    config: LoopConfig
    params: NoiseParams
    final_model: object = field(default=None, compare=False)  # last fitted second layer

    def __len__(self) -> int:
        return len(self.points)

    CSV_HEADER = [f.name for f in fields(TrajectoryPoint)]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.CSV_HEADER)
            w.writerows(astuple(p) for p in self.points)


@dataclass(frozen=True)
class OrderMetrics:
    mean_NG: float
    std_NG: float
    min_NG: float
    max_NG: float
    mean_E: float
    regime: str


def update_neuron_count(N_t: int, E_t: float, p: NoiseParams, n_min: int, n_max: int) -> int:
    """One step of the neuron-growth law, clamped and floored. The loop
    calls it once per step; its segment planner calls `_law`."""
    return _law(N_t, E_t, p, n_min, n_max)


def _law(N_t: int, E_t: float, p: NoiseParams, n_min: int, n_max: int) -> int:
    # beta = 0 ignores E_t, an infinite bound included, where 0 * inf is NaN.
    raw = p.alpha * N_t + (p.beta * E_t if p.beta else 0.0) + p.gamma
    return math.floor(min(max(raw, n_min), n_max))


def _segment(t: int, N: int, cfg: LoopConfig, p: NoiseParams, extra_of, e_max: float,
             width: int) -> list[tuple[int, int]]:
    """The steps (t, N_t) of the segment that starts at step t with N
    neurons: step t, then each step after an open one, through the first
    step that is not open. A step is open when the law gives the same
    N_{t+1} at E = 0 and at E = `e_max`. Every E_t lies in [0, e_max], and
    the law is monotone in E (beta >= 0, and each rounding is monotone),
    so no fit could change N_{t+1}. The law at E = 0 is monotone in N too
    (alpha >= 0), so the segment's N series is monotone. The steps'
    `width * N_t * extra_of(t)` (SORST-AS's stacked scaling search; for
    SONFIS it bounds the stacked fit's design, granules x R * (d + 1)) add up to
    at most `kernels.BLOCK_ELEMENTS`, or the segment is step t alone."""
    plan, size = [], 0
    while t <= cfg.iterations:
        size += width * N * extra_of(t)
        if plan and size > kernels.BLOCK_ELEMENTS:
            break
        plan.append((t, N))
        N_next = _law(N, 0.0, p, cfg.n_min, cfg.n_max)
        if N_next != _law(N, e_max, p, cfg.n_min, cfg.n_max):
            break
        t, N = t + 1, N_next
    return plan


# Segment work, `len(train) * sum(N_t)` over its steps, from which the
# loop runs a segment on forked workers. Forking one group costs about
# 3.4 ms (a pooled segment of two trivial steps, in a process holding
# sonfis-large's inputs: 3.1-3.7 ms, medians of 40 calls in 5 processes
# on 2 vCPUs). The threshold was set from the pairs below when a pool
# cost about 6 ms; at the lower cost smaller segments may gain too,
# unmeasured as yet.
# Measured with one BLAS thread on 2 vCPUs, fastest of 15 alternating
# rounds, serial / pooled ms ("break_even" in `BENCH_step_pool.json`; the
# SONFIS rows again with stacked fuzzy fits in `BENCH_nfis_stacks.json`):
# from 115,200 to 345,600 segments split both ways (SONFIS, 600 records x
# 144 neurons x 3 steps, work 259,200: 11.9 / 16.1; 4500 x 16 x 3,
# 216,000: 35.1 / 30.4); from 518,400 to 604,800 they tied or gained
# (600 x 144 x 6: 22.9 / 22.8; 600 x 144 x 7, 604,800: 26.5 / 24.4;
# SORST-AS 4500 x 64 x 2, 576,000: 20.0 / 22.6 at medians of 25.1 / 25.1),
# and at 1,296,000 both gained.
POOL_MIN_WORK = 2**19


def _pooled(plan, run_steps, workers: int, n_records: int) -> list:
    """`run_steps(plan)`, its steps dealt round-robin to k = min(`workers`,
    len(plan)) groups `plan[i::k]` when pooling pays: `pool.deal` runs
    group 0 in this process and the rest on k - 1 forked ones. A step's
    work is `n_records * N_t`, and a segment's N series is monotone
    (`_segment`), so the groups' summed N_t differ by at most the largest
    N_t. Serial when `workers` is 1, the plan has one step, its work is
    below POOL_MIN_WORK or fork is unavailable.
    Each step's result depends on its own (t, N_t) alone, so the results,
    put back in step order, are those of the serial call."""
    if n_records * sum(N for _, N in plan) < POOL_MIN_WORK:
        return run_steps(plan)
    k = min(workers, len(plan))
    outs = [None] * len(plan)
    for i, group in enumerate(deal(run_steps, [plan[i::k] for i in range(k)], k - 1)):
        outs[i::k] = group
    return outs


def _run_loop(train: Dataset, test: Dataset, cfg: LoopConfig, p: NoiseParams,
              extras: int | tuple[int, ...], fit_segment, error_fn, bound: float,
              workers: int | None) -> Trajectory:
    """The close-open loop both systems share. Step t granulates `train`
    with a SOM of N_t neurons, measures E_t and applies the update law.
    The granules are a Dataset, one record per live neuron
    (`som.extract_granules`). `fit_segment(steps)` fits the second layer
    on a list of steps, each `(t, granules, extra, seed)` with the step's
    entry of `extras` (one count, or a tuple of one per step), and returns
    per step (E_t, model), or None when the granules are degenerate; E_t
    is then carried forward from t - 1 (the std of the test decisions at
    t = 1). `error_fn(t, granules)`, when given, replaces the second
    layer. Step t seeds the SOM with `derive_seed(seed, 0, t)` and the
    second layer with `derive_seed(seed, 1, t)`.

    `bound` bounds every E_t a fit returns (it may be inf), so every E_t
    the loop carries is at most e_max = max(std(test.y), bound). The loop
    then runs one `_segment` at a time: its N series is known before any
    fit, so all its SOMs train first, one `som.train_som_stack` per
    distinct N_t, then one `fit_segment` call fits them all, then the steps
    record their points and apply the law in order. On more than one of
    `workers` (`pool.worker_count`) a large segment's steps are dealt
    among forked processes (`_pooled`); each trains its steps' SOMs and
    fits them, and the points are the same for any `workers`. When a
    segment of several steps raises, a forked group that ends without a
    result included, its steps run again one at a time in this process,
    so the exception the step-by-step loop meets escapes at its own step;
    the steps are certified open, so their N_t are the plan's. `error_fn`
    may return any value, so with it every segment is one step, in this
    process."""
    workers = worker_count(workers)
    if error_fn is not None:
        bound = None
        def fit_segment(steps):
            return [(float(error_fn(t, granules)), None) for t, granules, _, _ in steps]

    def extra_of(t):
        return extras[t - 1] if isinstance(extras, tuple) else extras

    def run_steps(plan):
        """Each planned step's live granule count and fit. The steps' SOMs
        of one N train as one stack."""
        steps_of, grids = {}, {}
        for t, N in plan:
            steps_of.setdefault(N, []).append(t)
        for N, ts in steps_of.items():
            seeds = [derive_seed(cfg.seed, 0, t) for t in ts]
            grids.update(zip(ts, train_som_stack(train, grid_dims(N), cfg.som, seeds)))
        steps = [(t, extract_granules(grids[t], train), extra_of(t), derive_seed(cfg.seed, 1, t))
                 for t, _ in plan]
        return [(len(granules), fitted) for (_, granules, _, _), fitted in zip(steps, fit_segment(steps))]

    points: list[TrajectoryPoint] = []
    t, N = 1, cfg.initial_N
    E, final_model = float(np.std(test.y)), None
    e_max = None if bound is None else max(E, bound)
    while t <= cfg.iterations:
        plan = [(t, N)] if e_max is None else _segment(t, N, cfg, p, extra_of, e_max, train.X.shape[1] + 1)
        try:
            outs = _pooled(plan, run_steps, workers, len(train))
        except Exception:  # any error: the step-by-step run raises it again, at its own step
            if len(plan) == 1:
                raise
            outs = None  # rerun below, once the handler has freed the exception and its arrays
        if outs is None:
            outs = [run_steps([step])[0] for step in plan]
        for (t_k, _), (live, fitted) in zip(plan, outs):
            if fitted is not None:  # otherwise E carries forward
                E, final_model = fitted
            points.append(TrajectoryPoint(t_k, N, *grid_dims(N), live, E, extra_of(t_k)))
            N = update_neuron_count(N, E, p, cfg.n_min, cfg.n_max)
        t = plan[-1][0] + 1
    return Trajectory(points, cfg, p, final_model)


def run_sonfis(train: Dataset, test: Dataset, cfg: LoopConfig, p: NoiseParams,
               error_fn=None, workers: int | None = None) -> Trajectory:
    """Close-open loop with the fuzzy second layer. E_t is the test RMSE of
    the fuzzy output clipped to the training decisions' range: with few
    granules per consequent unknown the least-squares fit can extrapolate
    far outside it, and the unclipped error would swamp the update law.
    `error_fn(t, granules)` is a test hook replacing the second layer (e.g.
    a constant-error stub); it receives step t's granules as the Dataset
    the second layer would fit. Returns the trajectory; the final rule base
    is `trajectory.final_model` (None when the hook is active).

    Each fit's E_t <= `nfis.rmse_bound(test, lo, hi)` on that range, so the
    loop certifies its open steps and runs them in segments, on up to `workers`
    processes (default: one per CPU this process may run on); the
    trajectory and the final rule base are the same for any `workers`. A
    segment's steps with enough granules seed their rule bases by k-means
    one at a time, train them as one `nfis.train_hybrid_stack` and score
    them one at a time."""
    lo, hi = train.y.min(), train.y.max()

    def fit_segment(steps):
        fits = {t: (granules, nfis.init_rulebase(granules, n_rules, seed=seed))
                for t, granules, n_rules, seed in steps if len(granules) >= n_rules}
        trained = dict(zip(fits, nfis.train_hybrid_stack([fis for _, fis in fits.values()],
                                                         [granules for granules, _ in fits.values()], cfg.nfis)))
        return [(nfis.rmse(trained[t], test, lo, hi), trained[t]) if t in trained else None for t, *_ in steps]

    return _run_loop(train, test, cfg, p, cfg.n_rules, fit_segment, error_fn, nfis.rmse_bound(test, lo, hi),
                     workers)


def run_sorst_as(train: Dataset, test: Dataset, cfg: LoopConfig, p: NoiseParams,
                 error_fn=None, workers: int | None = None) -> Trajectory:
    """Close-open loop with the rough second layer: granules are discretized
    by per-attribute 1-D SOM scaling with the step's bin count from
    `cfg.bins`, rules are induced, and E_t is the classifier MSE on the test
    data. `error_fn` and `workers` are those of `run_sonfis`.

    The label MSE is at most (max bins - 1)**2: with that bound the loop
    fits a segment's scaling SOMs as one stack per bin count
    (`rst.fit_scaling_stack`), then induces and scores each step's rules."""
    def fit_rules(granules, scaling):
        if isinstance(scaling, rst.ScalingError):  # constant attribute or collapsed codebook
            return None
        rules = rst.induce_rules(rst.apply_scaling(scaling, granules), scaling)
        return rst.mse(rules, test), rules

    def fit_segment(steps):
        scalings = {}
        for bins in dict.fromkeys(extra for _, _, extra, _ in steps):
            ts, tables, seeds = zip(*[(t, g, seed) for t, g, extra, seed in steps if extra == bins])
            scalings.update(zip(ts, rst.fit_scaling_stack(tables, bins, seeds)))
        return [fit_rules(granules, scalings[t]) for t, granules, _, _ in steps]

    bound = float((np.max(cfg.bins) - 1) ** 2)
    return _run_loop(train, test, cfg, p, cfg.bins, fit_segment, error_fn, bound, workers)


LAMINAR_CV = 0.05
DISORDERED_CV = 0.25


def order_metrics(traj: Trajectory, burn_in: int = 0) -> OrderMetrics:
    """Fluctuation statistics of the neuron-growth series after `burn_in`
    points, with a coefficient-of-variation regime label: laminar below
    LAMINAR_CV, disordered above DISORDERED_CV, transition between."""
    burn_in = check_field("burn_in", burn_in, int, 0)
    if burn_in >= len(traj):
        raise ValueError("burn_in must be smaller than the trajectory length")
    NG = np.array([p.N for p in traj.points[burn_in:]], dtype=np.float64)
    E = np.array([p.E for p in traj.points[burn_in:]], dtype=np.float64)
    mean = float(NG.mean())
    std = float(NG.std())  # population std
    cv = std / mean if mean > 0 else 0.0
    if cv < LAMINAR_CV:
        regime = "laminar"
    elif cv > DISORDERED_CV:
        regime = "disordered"
    else:
        regime = "transition"
    return OrderMetrics(mean, std, float(NG.min()), float(NG.max()), float(E.mean()), regime)


def trajectory_report(traj: Trajectory) -> str:
    """JSON run report: the `LoopConfig` as it is, noise parameters, order
    metrics, and the final second-layer model when one was fitted."""
    model = traj.final_model
    doc = {
        "config": asdict(traj.config),
        "noise": asdict(traj.params),
        "order_metrics": asdict(order_metrics(traj)),
        "final_model": None if model is None else model.to_dict(),
        "points": [asdict(pt) for pt in traj.points],
    }
    return json.dumps(doc, indent=2)
