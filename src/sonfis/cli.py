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
import sys
from dataclasses import astuple, dataclass
from pathlib import Path

from . import dynamics, sweep as sweep_mod
from .dataset import (SYNTHETIC_DEFAULTS, SYNTHETIC_KEYS, Dataset, DatasetError, SplitSpec, check_value,
                      gen_synthetic, load_csv, min_max_normalize, split)
from .dynamics import LoopConfig, NoiseParams
from .nfis import NfisTrainParams
from .som import SomParams


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    dataset_source: dict
    split_spec: SplitSpec
    noise: NoiseParams
    loop: LoopConfig
    sweep: sweep_mod.SweepSpec


def _check_keys(obj, allowed: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {obj!r}")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _build(path: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`, with the ValueError its own checks raise
    reported as a config error at `path`, or at `path.field` when the error
    names the field it rejects."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        field = getattr(exc, "field", None)
        raise ConfigError(f"{path}.{field}: {exc.problem}" if field else f"{path}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Read and validate the JSON run configuration; a leading UTF-8
    byte-order mark is dropped."""
    try:
        raw = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: cannot decode: {exc}") from None
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    top_keys = {*NoiseParams.FIELDS, *LoopConfig.FIELDS, "dataset", "split", "som", "nfis", "sweep"}
    _check_keys(doc, top_keys, "$")

    src = doc.get("dataset", {"synthetic": {}})
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
        if "decision_column" in src:
            raise ConfigError("$.dataset.decision_column: allowed only with 'csv'")
        _check_keys(src["synthetic"], SYNTHETIC_KEYS, "$.dataset.synthetic")
        syn = {**SYNTHETIC_DEFAULTS, **src["synthetic"]}
        src = {"synthetic": {key: _build(f"$.dataset.synthetic.{key}", check_value, syn[key], *entry)
                             for key, entry in SYNTHETIC_KEYS.items()}}
    else:
        raise ConfigError("$.dataset: one of 'csv' or 'synthetic' is required")

    sections = {}
    for key, cls in (("split", SplitSpec), ("som", SomParams), ("nfis", NfisTrainParams)):
        section = doc.get(key, {})
        _check_keys(section, cls.FIELDS, f"$.{key}")
        sections[key] = _build(f"$.{key}", cls, **section)
    noise = _build("$", NoiseParams, **{key: doc[key] for key in NoiseParams.FIELDS if key in doc})
    loop = _build("$", LoopConfig, **{key: doc[key] for key in LoopConfig.FIELDS if key in doc},
                  som=sections["som"], nfis=sections["nfis"])

    sweep_doc = doc.get("sweep")
    if sweep_doc is None:
        sweep_doc = {}
    sweep_keys = {"alphas", "betas", "gammas", "extras", "system", *sweep_mod.SweepSpec.FIELDS}
    _check_keys(sweep_doc, sweep_keys, "$.sweep")
    # An omitted axis sweeps the one value the run would use; extras are
    # rule counts (sonfis) or bin counts (sorst).
    system = sweep_doc.get("system", "sonfis")
    if system == "sorst" and isinstance(loop.bins, tuple) and "extras" not in sweep_doc:
        raise ConfigError("$.sweep.extras: required for a 'sorst' sweep when bins is a list")
    defaults = {"alphas": [noise.alpha], "betas": [noise.beta], "gammas": [noise.gamma],
                "extras": [loop.n_rules if system == "sonfis" else loop.bins], "repeats": 1}
    sweep_spec = _build("$.sweep", sweep_mod.SweepSpec, **{**defaults, **sweep_doc}, base_config=loop)

    return RunConfig(src, sections["split"], noise, loop, sweep_spec)


def _prepare_data(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    if "csv" in cfg.dataset_source:
        ds = load_csv(cfg.dataset_source["csv"], cfg.dataset_source["decision_column"])
    else:
        ds = gen_synthetic(**cfg.dataset_source["synthetic"])
    ds = min_max_normalize(ds)
    return split(ds, cfg.split_spec)


def _cmd_gen_data(args) -> int:
    ds = gen_synthetic(_build("--n", check_value, args.n, *SYNTHETIC_KEYS["n"]),
                       _build("--noise", check_value, args.noise, *SYNTHETIC_KEYS["noise_sd"]),
                       _build("--seed", check_value, args.seed, *SYNTHETIC_KEYS["seed"]))
    ds.to_csv(args.out)
    return 0


def _workers(args) -> int | None:
    """The `--workers` flag, checked as `pool.worker_count` checks it."""
    return None if args.workers is None else _build("--workers", check_value, args.workers, int, 1)


def _cmd_run(args, system: str) -> int:
    workers = _workers(args)
    cfg = load_config(args.config)
    train, test = _prepare_data(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    run = dynamics.run_sonfis if system == "sonfis" else dynamics.run_sorst_as
    traj = run(train, test, cfg.loop, cfg.noise, workers=workers)
    traj.to_csv(outdir / f"trajectory_{system}.csv")
    (outdir / f"report_{system}.json").write_text(dynamics.trajectory_report(traj))
    return 0


def _cmd_sweep(args) -> int:
    workers = _workers(args)
    cfg = load_config(args.config)
    train, test = _prepare_data(cfg)
    result = sweep_mod.run_sweep(cfg.sweep, train, test, keep_trajectories=args.trajectories is not None,
                                 workers=workers)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    sweep_mod.export_csv(result, outdir / "sweep.csv")
    if args.trajectories is not None:
        doc = [{**sweep_mod.cell_key(cell, rep), "points": [astuple(p) for p in traj.points]}
               for cell in result.cells for rep, traj in enumerate(cell.trajectories or [])]
        Path(args.trajectories).write_text(json.dumps(doc))
    if all(cell.error is not None for cell in result.cells):
        print(f"runtime error: {result.cells[0].error}", file=sys.stderr)
        return 1
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
    g.add_argument("--n", type=int, default=SYNTHETIC_DEFAULTS["n"])
    g.add_argument("--noise", type=float, default=SYNTHETIC_DEFAULTS["noise_sd"])
    g.add_argument("--seed", type=int, default=SYNTHETIC_DEFAULTS["seed"])
    g.add_argument("--out", required=True)

    for name in ("run-sonfis", "run-sorst"):
        r = sub.add_parser(name, help=f"single {name.split('-')[1]} run")
        r.add_argument("--config", required=True)
        r.add_argument("--out", default=".")
        r.add_argument("--workers", type=int, default=None,
                       help="processes that run the certified-open steps (default: every available CPU)")

    s = sub.add_parser("sweep", help="parameter-grid sweep")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default=".")
    s.add_argument("--trajectories", default=None, help="optional JSON dump of full trajectories")
    s.add_argument("--workers", type=int, default=None,
                   help="processes that run the sweep's trajectories (default: every available CPU)")

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
    # Built per call, so a command function replaced on the module is the
    # one that runs.
    commands = {"gen-data": _cmd_gen_data, "run-sonfis": lambda a: _cmd_run(a, "sonfis"),
                "run-sorst": lambda a: _cmd_run(a, "sorst"), "sweep": _cmd_sweep, "report": _cmd_report}
    try:
        return commands[args.command](args)
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
