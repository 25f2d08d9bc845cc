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

from . import nfis, rst
from .dataset import Dataset, check_fields
from .nfis import NfisTrainParams
from .som import MAX_NEURONS, SomParams, extract_granules, grid_dims, train_som


@dataclass(frozen=True)
class NoiseParams:
    """The update law's connectivity parameters; the defaults are the
    paper's baseline."""
    alpha: float = 0.9
    beta: float = 0.001
    gamma: float = 0.5

    FIELDS = {"alpha": (float, 0.0), "beta": (float, 0.0), "gamma": (float, None)}

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
        if isinstance(self.bins, list):
            object.__setattr__(self, "bins", tuple(self.bins))
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
    """One step of the neuron-growth law, clamped and floored."""
    raw = p.alpha * N_t + p.beta * E_t + p.gamma
    return math.floor(min(max(raw, n_min), n_max))


def _iter_seed(master: int, t: int, stream: int = 0) -> int:
    """Per-iteration seed: a pure function of (master seed, iteration,
    stream). Stream 0 is the SOM, stream 1 the second layer."""
    return int(np.random.SeedSequence([master, stream, t]).generate_state(1)[0])


def _run_loop(train: Dataset, test: Dataset, cfg: LoopConfig, p: NoiseParams,
              extras: int | tuple[int, ...], fit_eval, error_fn) -> Trajectory:
    """The close-open loop both systems share. Step t granulates `train`
    with a SOM of N_t neurons, measures E_t and applies the update law.
    `fit_eval(granules, extra, seed)` fits the second layer with the step's
    entry of `extras` (one count, or a tuple of one per step) and returns
    (E_t, model), or None when the granules are degenerate; E_t is then
    carried forward from t - 1 (the std of the test decisions at t = 1).
    `error_fn(t, granules)`, when given, replaces the second layer."""
    points: list[TrajectoryPoint] = []
    N = cfg.initial_N
    E, final_model = float(np.std(test.y)), None
    for t in range(1, cfg.iterations + 1):
        extra = extras[t - 1] if isinstance(extras, tuple) else extras
        dims = grid_dims(N)
        grid = train_som(train, dims, cfg.som, _iter_seed(cfg.seed, t))
        granules = extract_granules(grid, train)
        if error_fn is not None:
            fitted = float(error_fn(t, granules)), None
        else:
            fitted = fit_eval(granules, extra, _iter_seed(cfg.seed, t, stream=1))
        if fitted is not None:  # otherwise E carries forward
            E, final_model = fitted
        points.append(TrajectoryPoint(t, N, *dims, len(granules), E, extra))
        N = update_neuron_count(N, E, p, cfg.n_min, cfg.n_max)
    return Trajectory(points, cfg, p, final_model)


def run_sonfis(train: Dataset, test: Dataset, cfg: LoopConfig, p: NoiseParams,
               error_fn=None) -> Trajectory:
    """Close-open loop with the fuzzy second layer. E_t is the test RMSE of
    the fuzzy output clipped to the training decisions' range: with few
    granules per consequent unknown the least-squares fit can extrapolate
    far outside it, and the unclipped error would swamp the update law.
    `error_fn(t, granules)` is a test hook replacing the second layer (e.g.
    a constant-error stub). Returns the trajectory; the final rule base is
    `trajectory.final_model` (None when the hook is active)."""
    def fit_eval(granules, n_rules, seed):
        if len(granules) < n_rules:
            return None
        fis = nfis.init_rulebase(granules, n_rules, seed=seed)
        fis = nfis.train_hybrid(fis, granules, cfg.nfis)
        return nfis.rmse(fis, test, train.y.min(), train.y.max()), fis

    return _run_loop(train, test, cfg, p, cfg.n_rules, fit_eval, error_fn)


def run_sorst_as(train: Dataset, test: Dataset, cfg: LoopConfig, p: NoiseParams,
                 error_fn=None) -> Trajectory:
    """Close-open loop with the rough second layer: granules are discretized
    by per-attribute 1-D SOM scaling with the step's bin count from
    `cfg.bins`, rules are induced, and E_t is the classifier MSE on the test
    data. `error_fn` is the hook of `run_sonfis`."""
    def fit_eval(granules, bins, seed):
        gran_ds = Dataset(granules.inputs, granules.decisions, list(train.attribute_names))
        try:
            scaling = rst.fit_scaling(gran_ds, bins, seed=seed)
        except rst.ScalingError:  # constant attribute or collapsed codebook
            return None
        rules = rst.induce_rules(rst.apply_scaling(scaling, gran_ds), scaling)
        return rst.mse(rules, test), rules

    return _run_loop(train, test, cfg, p, cfg.bins, fit_eval, error_fn)


LAMINAR_CV = 0.05
DISORDERED_CV = 0.25


def order_metrics(traj: Trajectory, burn_in: int = 0) -> OrderMetrics:
    """Fluctuation statistics of the neuron-growth series after `burn_in`
    points, with a coefficient-of-variation regime label: laminar below
    LAMINAR_CV, disordered above DISORDERED_CV, transition between."""
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
    model_doc = None if model is None else json.loads(model.to_json())
    doc = {
        "config": asdict(traj.config),
        "noise": asdict(traj.params),
        "order_metrics": asdict(order_metrics(traj)),
        "final_model": model_doc,
        "points": [asdict(pt) for pt in traj.points],
    }
    return json.dumps(doc, indent=2)
