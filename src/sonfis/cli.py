"""Command-line entry point.

Subcommands:
  gen-data    write a synthetic CSV
  run-sonfis  one fuzzy-branch run: trajectory CSV + JSON report
  run-sorst   one rough-branch run: trajectory CSV + JSON report
  sweep       parameter-grid sweep: long-format CSV
  report      recompute a transition profile from an existing sweep CSV

Configuration is a strict JSON file; unknown keys are rejected and every
omitted field takes the documented baseline default (alpha 0.9, beta 0.001,
gamma 0.5, n_rules 2, iterations 30, n_min 4, n_max 400, initial_N 100).
Exit codes: 0 success, 1 runtime failure, 2 bad config/usage, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import dynamics, sweep as sweep_mod
from .dataset import Dataset, DatasetError, SplitSpec, gen_synthetic, load_csv, min_max_normalize, split
from .dynamics import LoopConfig, NoiseParams
from .nfis import NfisTrainParams
from .som import SomParams


class ConfigError(ValueError):
    pass


CONFIG_DEFAULTS = {
    "alpha": 0.9,
    "beta": 0.001,
    "gamma": 0.5,
    "iterations": 30,
    "n_rules": 2,
    "bins": 3,
    "n_min": 4,
    "n_max": 400,
    "initial_N": 100,
    "seed": 0,
}


@dataclass
class RunConfig:
    dataset_source: dict
    split_spec: SplitSpec
    noise: NoiseParams
    loop: LoopConfig
    bin_schedule: list[int] | int
    sweep: sweep_mod.SweepSpec


def _check_keys(obj, allowed: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {obj!r}")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _number(val, where: str, kind=float, minimum=None):
    """`val` as a finite `kind` that is at least `minimum`. JSON booleans
    are not numbers here, and Python's json parser reads `Infinity` and
    `NaN` as floats."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {val!r}")
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{where}: expected a finite number, got {val!r}")
    if kind is int and int(val) != val:
        raise ConfigError(f"{where}: expected an integer, got {val!r}")
    val = kind(val)
    if minimum is not None and val < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {val}")
    return val


def _num(obj: dict, key: str, default, path: str, kind=float, minimum=None):
    return _number(obj.get(key, default), f"{path}.{key}", kind, minimum)


def _build(path: str, cls, **kwargs):
    """`cls(**kwargs)`, with the ValueError its own checks raise reported as
    a config error at `path`."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Read and validate the JSON run configuration."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    _check_keys(
        doc,
        {
            "dataset", "split", "alpha", "beta", "gamma", "iterations", "n_rules",
            "bins", "bin_schedule", "n_min", "n_max", "initial_N", "seed",
            "som", "nfis", "sweep",
        },
        "$",
    )

    src = doc.get("dataset", {"synthetic": {"n": 693, "noise_sd": 0.05, "seed": 7}})
    _check_keys(src, {"csv", "decision_column", "synthetic"}, "$.dataset")
    if "csv" in src and "synthetic" in src:
        raise ConfigError("$.dataset: exactly one of 'csv' or 'synthetic' is allowed")
    if "csv" in src:
        if "decision_column" not in src:
            raise ConfigError("$.dataset.decision_column: required with 'csv'")
        for key in ("csv", "decision_column"):
            if not isinstance(src[key], str):
                raise ConfigError(f"$.dataset.{key}: expected a string, got {src[key]!r}")
    elif "synthetic" in src:
        syn = src["synthetic"]
        _check_keys(syn, {"n", "noise_sd", "seed"}, "$.dataset.synthetic")
        _num(syn, "n", 693, "$.dataset.synthetic", int, 1)
        _num(syn, "noise_sd", 0.05, "$.dataset.synthetic", float, 0.0)
        _num(syn, "seed", 7, "$.dataset.synthetic", int)
    else:
        raise ConfigError("$.dataset: one of 'csv' or 'synthetic' is required")

    sp = doc.get("split", {})
    _check_keys(sp, {"n_train", "n_test", "shuffle_seed"}, "$.split")
    n_train = _num(sp, "n_train", 600, "$.split", int, 1)
    n_test = _num(sp, "n_test", 93, "$.split", int, 1)
    shuffle_seed = sp.get("shuffle_seed")
    if shuffle_seed is not None:
        shuffle_seed = _num(sp, "shuffle_seed", None, "$.split", int)
    split_spec = SplitSpec(n_train, n_test, shuffle_seed)

    noise = _build(
        "$",
        NoiseParams,
        alpha=_num(doc, "alpha", CONFIG_DEFAULTS["alpha"], "$", float, 0.0),
        beta=_num(doc, "beta", CONFIG_DEFAULTS["beta"], "$", float, 0.0),
        gamma=_num(doc, "gamma", CONFIG_DEFAULTS["gamma"], "$", float),
    )

    som_doc = doc.get("som", {})
    _check_keys(som_doc, {"epochs", "initial_radius", "final_radius"}, "$.som")
    initial_radius = som_doc.get("initial_radius")
    if initial_radius is not None:
        initial_radius = _num(som_doc, "initial_radius", None, "$.som", float, 0.0)
    som_params = _build(
        "$.som",
        SomParams,
        epochs=_num(som_doc, "epochs", 10, "$.som", int, 1),
        initial_radius=initial_radius,
        final_radius=_num(som_doc, "final_radius", 0.5, "$.som", float),
    )

    nfis_doc = doc.get("nfis", {})
    _check_keys(nfis_doc, {"epochs", "premise_learning_rate"}, "$.nfis")
    nfis_params = _build(
        "$.nfis",
        NfisTrainParams,
        epochs=_num(nfis_doc, "epochs", 10, "$.nfis", int, 1),
        premise_learning_rate=_num(nfis_doc, "premise_learning_rate", 0.05, "$.nfis", float),
    )

    loop = _build(
        "$",
        LoopConfig,
        iterations=_num(doc, "iterations", CONFIG_DEFAULTS["iterations"], "$", int, 1),
        n_rules=_num(doc, "n_rules", CONFIG_DEFAULTS["n_rules"], "$", int, 1),
        bins=_num(doc, "bins", CONFIG_DEFAULTS["bins"], "$", int, 2),
        n_min=_num(doc, "n_min", CONFIG_DEFAULTS["n_min"], "$", int, 2),
        n_max=_num(doc, "n_max", CONFIG_DEFAULTS["n_max"], "$", int, 2),
        initial_N=_num(doc, "initial_N", CONFIG_DEFAULTS["initial_N"], "$", int, 1),
        som_params=som_params,
        nfis_params=nfis_params,
        seed=_num(doc, "seed", CONFIG_DEFAULTS["seed"], "$", int),
    )

    bin_schedule = doc.get("bin_schedule", loop.bins)
    if isinstance(bin_schedule, list):
        if len(bin_schedule) != loop.iterations:
            raise ConfigError(f"$.bin_schedule: a list needs one bin count per iteration "
                              f"({loop.iterations}), got {len(bin_schedule)}")
        bin_schedule = [_number(b, f"$.bin_schedule[{i}]", int, 2) for i, b in enumerate(bin_schedule)]
    else:
        bin_schedule = _number(bin_schedule, "$.bin_schedule", int, 2)

    sweep_doc = doc.get("sweep")
    if sweep_doc is None:
        sweep_doc = {}
    _check_keys(
        sweep_doc,
        {"alphas", "betas", "gammas", "extras", "repeats", "system", "burn_in"},
        "$.sweep",
    )
    system = sweep_doc.get("system", "sonfis")
    if system not in ("sonfis", "sorst"):
        raise ConfigError(f"$.sweep.system: must be 'sonfis' or 'sorst', got {system!r}")
    # extras are rule counts (sonfis) or bin counts (sorst).
    axes = {
        "alphas": (noise.alpha, float, 0.0),
        "betas": (noise.beta, float, 0.0),
        "gammas": (noise.gamma, float, None),
        "extras": (loop.n_rules, int, 1) if system == "sonfis" else (loop.bins, int, 2),
    }
    grid = {}
    for key, (default, kind, minimum) in axes.items():
        vals = sweep_doc.get(key, [default])
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"$.sweep.{key}: must be a non-empty list")
        checked = [_number(v, f"$.sweep.{key}[{i}]", kind, minimum) for i, v in enumerate(vals)]
        # Parameter values keep their JSON form, so an integer alpha is
        # written to sweep.csv as `1`, not `1.0`.
        grid[key] = tuple(checked if kind is int else vals)
    burn_in = _num(sweep_doc, "burn_in", 0, "$.sweep", int, 0)
    if burn_in >= loop.iterations:
        raise ConfigError(f"$.sweep.burn_in: must be < iterations ({loop.iterations}), got {burn_in}")
    sweep_spec = _build(
        "$.sweep",
        sweep_mod.SweepSpec,
        **grid,
        repeats=_num(sweep_doc, "repeats", 1, "$.sweep", int, 1),
        base_config=loop,
        system=system,
        burn_in=burn_in,
    )

    return RunConfig(src, split_spec, noise, loop, bin_schedule, sweep_spec)


def _prepare_data(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    if "csv" in cfg.dataset_source:
        ds = load_csv(cfg.dataset_source["csv"], cfg.dataset_source["decision_column"])
    else:
        syn = cfg.dataset_source["synthetic"]
        ds = gen_synthetic(syn.get("n", 693), syn.get("noise_sd", 0.05), syn.get("seed", 7))
    ds = min_max_normalize(ds)
    return split(ds, cfg.split_spec)


def _cmd_gen_data(args) -> int:
    ds = gen_synthetic(args.n, args.noise, args.seed)
    ds.to_csv(args.out)
    return 0


def _cmd_run(args, system: str) -> int:
    cfg = load_config(args.config)
    train, test = _prepare_data(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if system == "sonfis":
        traj = dynamics.run_sonfis(train, test, cfg.loop, cfg.noise)
    else:
        traj = dynamics.run_sorst_as(train, test, cfg.loop, cfg.noise, cfg.bin_schedule)
    traj.to_csv(outdir / f"trajectory_{system}.csv")
    (outdir / f"report_{system}.json").write_text(dynamics.trajectory_report(traj))
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    train, test = _prepare_data(cfg)
    result = sweep_mod.run_sweep(cfg.sweep, train, test, keep_trajectories=args.trajectories is not None)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    sweep_mod.export_csv(result, outdir / "sweep.csv")
    if args.trajectories is not None:
        doc = []
        for cell in result.cells:
            for rep, traj in enumerate(cell.trajectories or []):
                doc.append(
                    {
                        "alpha": cell.alpha,
                        "beta": cell.beta,
                        "gamma": cell.gamma,
                        "extra": cell.extra,
                        "repeat": rep,
                        "points": [p.row() for p in traj.points],
                    }
                )
        Path(args.trajectories).write_text(json.dumps(doc))
    return 0


def _cmd_report(args) -> int:
    rows = sweep_mod.load_csv_rows(args.sweep_csv)
    profile = sweep_mod.profile_from_rows(rows, args.axis)
    text = json.dumps(profile, indent=2)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sonfis", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic CSV dataset")
    g.add_argument("--n", type=int, default=693)
    g.add_argument("--noise", type=float, default=0.05)
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--out", required=True)

    for name in ("run-sonfis", "run-sorst"):
        r = sub.add_parser(name, help=f"single {name.split('-')[1]} run")
        r.add_argument("--config", required=True)
        r.add_argument("--out", default=".")

    s = sub.add_parser("sweep", help="parameter-grid sweep")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default=".")
    s.add_argument("--trajectories", default=None, help="optional JSON dump of full trajectories")

    rep = sub.add_parser("report", help="transition profile from a sweep CSV")
    rep.add_argument("--sweep-csv", required=True)
    rep.add_argument("--axis", default="alpha", choices=["alpha", "beta", "gamma", "extra"])
    rep.add_argument("--out", default=None)
    return parser


def execute(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "gen-data":
            return _cmd_gen_data(args)
        if args.command == "run-sonfis":
            return _cmd_run(args, "sonfis")
        if args.command == "run-sorst":
            return _cmd_run(args, "sorst")
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "report":
            return _cmd_report(args)
        print(f"unknown command {args.command!r}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, DatasetError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
