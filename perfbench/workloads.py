"""The benchmark workloads.

Each workload turns a seed into inputs (`build`), runs its body on them
(`run`, the part that is timed) and turns what the body left behind into
plain trajectory records (`collect`) for the checks in `checks.py`. The
seed feeds both the synthetic data generator and `LoopConfig.seed`; the
program sees only the generated inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from sonfis import cli, dataset, dynamics, sweep


@dataclass(frozen=True)
class Law:
    """Loop settings the checks replay the update law against."""
    iterations: int
    initial_N: int
    n_min: int
    n_max: int
    burn_in: int


@dataclass
class Outputs:
    trajectories: list[dict]  # alpha, beta, gamma, extra, repeat, points
    expected: int  # trajectories the body attempted
    csv_text: str | None = None  # sweep.csv, for the workloads that write one
    errors: list[str] = field(default_factory=list)
    child_rss_kb: int | None = None  # peak RSS of the CLI process


def _points(traj) -> list[list]:
    return [[p.t, p.N, p.dims[0], p.dims[1], p.live_granules, p.E, p.extra] for p in traj.points]


def _train_test(n: int, n_train: int, n_test: int, seed: int):
    ds = dataset.min_max_normalize(dataset.gen_synthetic(n, 0.05, seed))
    return dataset.split(ds, dataset.SplitSpec(n_train, n_test))


class AlphaSweep:
    """The criterion-3 grid: six alphas x five repeats of SONFIS."""

    name = "alpha-sweep"
    expected = 30  # trajectories per body: 6 alphas x 5 repeats
    law = Law(iterations=30, initial_N=100, n_min=4, n_max=400, burn_in=10)
    alphas = (0.7, 0.75, 0.8, 0.85, 0.9, 0.95)

    def build(self, seed: int, workdir: Path):
        train, test = _train_test(693, 600, 93, seed)
        cfg = dynamics.LoopConfig(iterations=self.law.iterations, n_rules=2, n_min=self.law.n_min,
                                  n_max=self.law.n_max, initial_N=self.law.initial_N, seed=seed)
        spec = sweep.SweepSpec(alphas=self.alphas, betas=(0.001,), gammas=(0.5,), extras=(2,),
                               repeats=5, base_config=cfg, system="sonfis",
                               burn_in=self.law.burn_in)
        return spec, train, test

    def run(self, inputs, outdir: Path, in_process: bool):
        spec, train, test = inputs
        result = sweep.run_sweep(spec, train, test, keep_trajectories=True)
        sweep.export_csv(result, outdir / "sweep.csv")
        return result

    def collect(self, inputs, raw, outdir: Path) -> Outputs:
        spec = inputs[0]
        out = Outputs([], len(spec.grid) * spec.repeats, (outdir / "sweep.csv").read_text())
        for cell in raw.cells:
            if cell.error is not None:
                out.errors.append(f"cell alpha={cell.alpha}: {cell.error}")
            for rep, traj in enumerate(cell.trajectories or []):
                out.trajectories.append({"alpha": cell.alpha, "beta": cell.beta, "gamma": cell.gamma,
                                         "extra": cell.extra, "repeat": rep, "points": _points(traj)})
        return out


class SonfisLarge:
    """One SONFIS trajectory clamped at a 20x20 grid on 4500 records."""

    name = "sonfis-large"
    expected = 1
    law = Law(iterations=5, initial_N=400, n_min=4, n_max=400, burn_in=0)
    noise = (0.9, 0.001, 40.0)  # fixed point (0.001*E + 40) / 0.1 >= 400

    def build(self, seed: int, workdir: Path):
        train, test = _train_test(5000, 4500, 500, seed)
        cfg = dynamics.LoopConfig(iterations=self.law.iterations, n_rules=2, n_min=self.law.n_min,
                                  n_max=self.law.n_max, initial_N=self.law.initial_N, seed=seed)
        return train, test, cfg, dynamics.NoiseParams(*self.noise)

    def run(self, inputs, outdir: Path, in_process: bool):
        return dynamics.run_sonfis(*inputs)

    def collect(self, inputs, raw, outdir: Path) -> Outputs:
        alpha, beta, gamma = self.noise
        return Outputs([{"alpha": alpha, "beta": beta, "gamma": gamma, "extra": 2, "repeat": 0,
                         "points": _points(raw)}], self.expected)


class SorstCli:
    """`sonfis sweep` over SORST-AS: two alphas x three bin counts."""

    name = "sorst-cli"
    expected = 6  # 2 alphas x 3 bin counts x 1 repeat
    law = Law(iterations=30, initial_N=100, n_min=4, n_max=400, burn_in=10)

    def build(self, seed: int, workdir: Path):
        path = workdir / "config.json"
        law = self.law
        path.write_text(json.dumps({
            "seed": seed,
            "iterations": law.iterations, "initial_N": law.initial_N,
            "n_min": law.n_min, "n_max": law.n_max,
            "dataset": {"synthetic": {"n": 693, "noise_sd": 0.05, "seed": seed}},
            "sweep": {"alphas": [0.85, 0.95], "betas": [0.001], "gammas": [0.5], "extras": [2, 3, 5],
                      "repeats": 1, "system": "sorst", "burn_in": law.burn_in},
        }))
        return path

    def run(self, inputs, outdir: Path, in_process: bool):
        """One `python -m sonfis.cli` process, or `cli.execute` in this
        process when `in_process`. Returns (exit code, child peak RSS in kB
        or None)."""
        argv = ["sweep", "--config", str(inputs), "--out", str(outdir),
                "--trajectories", str(outdir / "trajectories.json")]
        if in_process:
            return cli.execute(argv), None
        with open(outdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "sonfis.cli", *argv],
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def collect(self, inputs, raw, outdir: Path) -> Outputs:
        code, rss_kb = raw
        out = Outputs([], self.expected, child_rss_kb=rss_kb)
        if code != 0:
            stderr = outdir / "stderr.txt"
            detail = stderr.read_text().strip() if stderr.exists() else ""
            out.errors.append(f"sonfis sweep exited {code}: {detail}")
            return out
        out.csv_text = (outdir / "sweep.csv").read_text()
        out.trajectories = json.loads((outdir / "trajectories.json").read_text())
        return out


WORKLOADS = {w.name: w for w in (AlphaSweep(), SonfisLarge(), SorstCli())}
