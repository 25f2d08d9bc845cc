"""Which program functions the traced run wraps, and how their spans become
the per-layer metrics.

Each function is wrapped where its caller looks it up, so the wrappers see
every call without a change to the program. Times and counts are per
workload body (totals over the traced bodies divided by their number);
`*_frac` metrics are ratios over all traced bodies. `dist_evals` and
`bytes_computed` are calculated from the array shapes the wrapper sees,
not measured.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from sonfis import cli, dataset, dynamics, kernels, nfis, rst, sweep
from spans import Tracer

LOOP = "dynamics.loop"  # one span per trajectory

# (owner, attribute, span name); `wrap_all` adds the wrappers that also
# record counts.
PLAIN = [
    (kernels, "accumulate_by_bmu", "kernels.accumulate_by_bmu"),
    (dynamics, "train_som", "som.train_som"),  # 2-D granulation SOM
    (rst, "train_som", "rst.train_som"),  # 1-D scaling SOMs
    (nfis, "init_rulebase", "nfis.init_rulebase"),
    (nfis, "_solve_consequents", "nfis._solve_consequents"),
    (nfis, "_premise_gradients", "nfis._premise_gradients"),
    (nfis, "rmse", "nfis.rmse"),
    (rst, "fit_scaling", "rst.fit_scaling"),
    (rst, "induce_rules", "rst.induce_rules"),
    (rst, "mse", "rst.mse"),
    (dynamics, "update_neuron_count", "dynamics.update_neuron_count"),
    (sweep, "order_metrics", "dynamics.order_metrics"),
    (sweep, "export_csv", "sweep.export_csv"),
    (cli, "load_config", "cli.load_config"),
    (cli, "_prepare_data", "cli._prepare_data"),
    (cli, "_cmd_sweep", "cli._cmd_sweep"),
] + [
    (owner, fn, f"dataset.{fn}")
    for owner in (dataset, cli)
    for fn in ("gen_synthetic", "min_max_normalize", "split")
]
TRAJECTORIES = [(sweep, "run_sonfis"), (sweep, "run_sorst_as"), (dynamics, "run_sonfis")]


class Layers:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.bmu_shapes: list[tuple[int, int, int]] = []
        self.granules: list[tuple[int, int]] = []  # (live, N) per extraction
        self.classified: list[tuple[object, object]] = []  # (rules, x) per call
        self.cells_failed = 0

    def wrap_all(self) -> None:
        t = self.tracer
        t.wrap(kernels, "assign_bmus", "kernels.assign_bmus",
               after=lambda args, _: self.bmu_shapes.append((*args[0].shape, len(args[1]))))
        t.wrap(dynamics, "extract_granules", "som.extract_granules",
               after=lambda args, res: self.granules.append((len(res), args[0].n_neurons)))
        t.wrap(rst, "classify", "rst.classify",
               after=lambda args, _: self.classified.append(args[:2]))
        t.wrap(sweep, "run_sweep", "sweep.run_sweep",
               after=lambda _, res: self._count_failed_cells(res))
        for owner, attr, name in PLAIN:
            t.wrap(owner, attr, name)
        for owner, attr in TRAJECTORIES:
            t.wrap(owner, attr, LOOP, trajectory=True)

    def _count_failed_cells(self, result) -> None:
        self.cells_failed += sum(cell.error is not None for cell in result.cells)

    def _exact_matches(self) -> int:
        """Classify calls whose discretized pattern equals a rule's."""
        exact, patterns, last = 0, set(), None
        for rules, x in self.classified:
            if rules is not last:
                patterns, last = {r.descriptors for r in rules.rules}, rules
            row = rules.scaling.discretize_inputs(x.reshape(1, -1))[0]
            exact += tuple(map(int, row)) in patterns
        return exact

    def metrics(self, bodies: int) -> dict[str, float]:
        spans = self.tracer.spans
        selfs = self.tracer.self_times()
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        steps: dict[int, int] = defaultdict(int)
        fitted: dict[int, int] = defaultdict(int)
        loops, write_s = [], 0.0
        for span, own in zip(spans, selfs):
            calls[span.name] += 1
            total[span.name] += span.duration
            self_s[span.name] += own
            if span.name == LOOP:
                loops.append(span.duration)
            elif span.name == "dynamics.update_neuron_count":
                steps[span.trajectory] += 1
            elif span.name in ("nfis.rmse", "rst.mse") and span.error is None:
                fitted[span.trajectory] += 1
            elif span.name == "cli._cmd_sweep":
                write_s += own
            elif span.name == "sweep.export_csv" and span.parent is not None \
                    and spans[span.parent].name == "cli._cmd_sweep":
                write_s += span.duration
        errors = sum(s.name == "rst.fit_scaling" and s.error == "ScalingError" for s in spans)
        live = sum(g[0] for g in self.granules)
        neurons = sum(g[1] for g in self.granules)
        n_classified = len(self.classified)
        per_body = {
            "kernels.assign_bmus.s": total["kernels.assign_bmus"],
            "kernels.assign_bmus.calls": calls["kernels.assign_bmus"],
            "kernels.assign_bmus.dist_evals": sum(n * m for n, _, m in self.bmu_shapes),
            "kernels.assign_bmus.bytes_computed": sum(8 * n * d * m for n, d, m in self.bmu_shapes),
            "kernels.accumulate_by_bmu.s": total["kernels.accumulate_by_bmu"],
            "kernels.accumulate_by_bmu.calls": calls["kernels.accumulate_by_bmu"],
            "som.train_som.self_s": self_s["som.train_som"],
            "som.train_som.calls": calls["som.train_som"],
            "som.extract_granules.s": total["som.extract_granules"],
            "nfis.init_rulebase.s": total["nfis.init_rulebase"],
            "nfis._solve_consequents.s": total["nfis._solve_consequents"],
            "nfis._premise_gradients.s": total["nfis._premise_gradients"],
            "nfis.rmse.s": total["nfis.rmse"],
            "rst.fit_scaling.s": total["rst.fit_scaling"],
            "rst.fit_scaling.som_s": total["rst.train_som"],
            "rst.fit_scaling.errors": errors,
            "rst.train_som.self_s": self_s["rst.train_som"],
            "rst.train_som.calls": calls["rst.train_som"],
            "rst.induce_rules.s": total["rst.induce_rules"],
            "rst.mse.s": total["rst.mse"],
            "rst.classify.calls": n_classified,
            "dynamics.loop.self_s": self_s[LOOP],
            "dynamics.update_neuron_count.calls": calls["dynamics.update_neuron_count"],
            "dynamics.fallback_steps": sum(steps[t] - fitted[t] for t in steps),
            "dynamics.order_metrics.s": total["dynamics.order_metrics"],
            "sweep.run_sweep.s": total["sweep.run_sweep"],
            "sweep.cells_failed": self.cells_failed,
            "sweep.export_csv.s": total["sweep.export_csv"],
            "cli.load_config.s": total["cli.load_config"],
            "cli._prepare_data.s": total["cli._prepare_data"],
            "cli.write_s": write_s,
            "dataset.gen_synthetic.s": total["dataset.gen_synthetic"],
            "dataset.min_max_normalize.s": total["dataset.min_max_normalize"],
            "dataset.split.s": total["dataset.split"],
        }
        out = {name: value / bodies for name, value in per_body.items()}
        out["som.live_frac"] = live / neurons if neurons else 0.0
        out["rst.classify.exact_frac"] = self._exact_matches() / n_classified if n_classified else 0.0
        out["sweep.trajectory_s.p50"] = statistics.median(loops) if loops else 0.0
        out["sweep.trajectory_s.p90"] = (statistics.quantiles(loops, n=10, method="inclusive")[8]
                                         if len(loops) > 1 else sum(loops))
        return out
