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
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from . import dynamics, sweep as sweep_mod
from .dataset import (SYNTHETIC_DEFAULTS, SYNTHETIC_KEYS, Dataset, DatasetError, SplitSpec, bound_error,
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


def _number(val, where: str, kind=float, minimum=None, maximum=None):
    """`val` as a finite `kind` within [`minimum`, `maximum`]. Kind `tuple`
    is one integer or a list of them, read as a tuple. JSON booleans are
    not numbers here, and Python's json parser reads `Infinity` and `NaN`
    as floats."""
    if kind is tuple:
        if isinstance(val, list):
            return tuple(_number(v, f"{where}[{i}]", int, minimum, maximum) for i, v in enumerate(val))
        kind = int
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {val!r}")
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{where}: expected a finite number, got {val!r}")
    if kind is int and int(val) != val:
        raise ConfigError(f"{where}: expected an integer, got {val!r}")
    problem = bound_error(val, minimum, maximum)
    if problem:
        raise ConfigError(f"{where}: {problem}")
    try:
        return kind(val)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{where}: expected a finite number, got an integer of {len(str(val))} digits") from None


def _values(obj: dict, table: dict, path: str, cls=None) -> dict:
    """The keys of `obj` that `table` declares, each checked as its
    `(kind, minimum)`. A null stays null where `cls` defaults the field to
    None."""
    nullable = {f.name for f in fields(cls) if f.default is None} if cls else ()
    return {key: val if val is None and key in nullable else _number(val, f"{path}.{key}", *table[key])
            for key, val in obj.items() if key in table}


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
        raw = Path(path).read_text(encoding="utf-8")
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
        _check_keys(src["synthetic"], SYNTHETIC_KEYS, "$.dataset.synthetic")
        src = {"synthetic": {**SYNTHETIC_DEFAULTS,
                             **_values(src["synthetic"], SYNTHETIC_KEYS, "$.dataset.synthetic")}}
    else:
        raise ConfigError("$.dataset: one of 'csv' or 'synthetic' is required")

    sections = {}
    for key, cls in (("split", SplitSpec), ("som", SomParams), ("nfis", NfisTrainParams)):
        section = doc.get(key, {})
        _check_keys(section, cls.FIELDS, f"$.{key}")
        sections[key] = _build(f"$.{key}", cls, **_values(section, cls.FIELDS, f"$.{key}", cls))
    noise = _build("$", NoiseParams, **_values(doc, NoiseParams.FIELDS, "$"))
    loop = _build("$", LoopConfig, **_values(doc, LoopConfig.FIELDS, "$"),
                  som=sections["som"], nfis=sections["nfis"])

    sweep_doc = doc.get("sweep")
    if sweep_doc is None:
        sweep_doc = {}
    sweep_keys = {"alphas", "betas", "gammas", "extras", "system", *sweep_mod.SweepSpec.FIELDS}
    _check_keys(sweep_doc, sweep_keys, "$.sweep")
    system = sweep_doc.get("system", "sonfis")
    if system not in ("sonfis", "sorst"):
        raise ConfigError(f"$.sweep.system: must be 'sonfis' or 'sorst', got {system!r}")
    # Each axis lists values of one config key, checked as that key is; extras
    # are rule counts (sonfis) or bin counts (sorst), one integer per cell.
    axes = {"alphas": (noise, "alpha"), "betas": (noise, "beta"), "gammas": (noise, "gamma"),
            "extras": (loop, "n_rules" if system == "sonfis" else "bins")}
    if system == "sorst" and isinstance(loop.bins, tuple) and "extras" not in sweep_doc:
        raise ConfigError("$.sweep.extras: required for a 'sorst' sweep when bins is a list")
    grid = {}
    for key, (params, name) in axes.items():
        vals = sweep_doc.get(key, [getattr(params, name)])
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"$.sweep.{key}: must be a non-empty list")
        kind, *bounds = type(params).FIELDS[name]
        kind = int if kind is tuple else kind
        checked = [_number(v, f"$.sweep.{key}[{i}]", kind, *bounds) for i, v in enumerate(vals)]
        # Parameter values keep their JSON form, so an integer alpha is
        # written to sweep.csv as `1`, not `1.0`.
        grid[key] = tuple(checked if kind is int else vals)
    sweep_spec = _build("$.sweep", sweep_mod.SweepSpec, **grid,
                        **{"repeats": 1, **_values(sweep_doc, sweep_mod.SweepSpec.FIELDS, "$.sweep")},
                        base_config=loop, system=system)
    if sweep_spec.burn_in >= loop.iterations:
        raise ConfigError(f"$.sweep.burn_in: must be < iterations ({loop.iterations}), "
                          f"got {sweep_spec.burn_in}")

    return RunConfig(src, sections["split"], noise, loop, sweep_spec)


def _prepare_data(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    if "csv" in cfg.dataset_source:
        ds = load_csv(cfg.dataset_source["csv"], cfg.dataset_source["decision_column"])
    else:
        ds = gen_synthetic(**cfg.dataset_source["synthetic"])
    ds = min_max_normalize(ds)
    return split(ds, cfg.split_spec)


def _cmd_gen_data(args) -> int:
    ds = gen_synthetic(_number(args.n, "--n", *SYNTHETIC_KEYS["n"]),
                       _number(args.noise, "--noise", *SYNTHETIC_KEYS["noise_sd"]),
                       _number(args.seed, "--seed", *SYNTHETIC_KEYS["seed"]))
    ds.to_csv(args.out)
    return 0


def _cmd_run(args, system: str) -> int:
    cfg = load_config(args.config)
    train, test = _prepare_data(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    run = dynamics.run_sonfis if system == "sonfis" else dynamics.run_sorst_as
    traj = run(train, test, cfg.loop, cfg.noise)
    traj.to_csv(outdir / f"trajectory_{system}.csv")
    (outdir / f"report_{system}.json").write_text(dynamics.trajectory_report(traj))
    return 0


def _cmd_sweep(args) -> int:
    workers = None if args.workers is None else _number(args.workers, "--workers", int, 1)
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
