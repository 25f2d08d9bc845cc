import multiprocessing
import threading
import time

import numpy as np
import pytest

from sonfis.dataset import SplitSpec, derive_seed, gen_synthetic, min_max_normalize, split
from sonfis.dynamics import LoopConfig
from sonfis.som import SomParams
from sonfis.sweep import (
    SweepSpec,
    export_csv,
    load_csv_rows,
    profile_from_rows,
    result_rows,
    run_sweep,
)


@pytest.fixture(scope="module")
def tiny_data():
    ds = min_max_normalize(gen_synthetic(120, 0.05, 5))
    return split(ds, SplitSpec(90, 30))


def stub_spec(alphas=(0.7, 0.8, 0.9), gammas=(0.5,), repeats=1, burn_in=0):
    cfg = LoopConfig(iterations=40, initial_N=100, n_min=2, seed=11, som=SomParams(epochs=2))
    return SweepSpec(alphas, (0.001,), gammas, (2,), repeats, cfg, "sonfis", burn_in)


class TestRunSweep:
    def test_shape_contract(self, tiny_data):
        train, test = tiny_data
        spec = stub_spec(alphas=(0.7, 0.75, 0.8, 0.85, 0.9), repeats=3)
        result = run_sweep(spec, train, test, error_fn=lambda t, g: 10.0)
        assert len(result.cells) == 5
        for cell in result.cells:
            assert cell.error is None
            assert len(cell.metrics) == 3

    def test_determinism(self, tiny_data):
        train, test = tiny_data
        spec = stub_spec(repeats=2)
        r1 = run_sweep(spec, train, test)
        r2 = run_sweep(spec, train, test)
        for c1, c2 in zip(r1.cells, r2.cells):
            assert c1.metrics == c2.metrics

    def test_stub_mean_ng_increasing_in_alpha(self, tiny_data):
        train, test = tiny_data
        spec = stub_spec(alphas=(0.7, 0.8, 0.9))
        result = run_sweep(spec, train, test, error_fn=lambda t, g: 10.0)
        means = [c.aggregate()["mean_NG"] for c in result.cells]
        assert means[0] < means[1] < means[2]

    def test_failed_cell_recorded_not_fatal(self, tiny_data):
        train, test = tiny_data

        def explode(t, granules):
            raise RuntimeError("boom")

        spec = stub_spec(alphas=(0.8,))
        result = run_sweep(spec, train, test, error_fn=explode)
        assert result.cells[0].error is not None
        assert "boom" in result.cells[0].error


class TestWorkers:
    """A sweep's result does not depend on how many processes run it."""

    def run_both(self, spec, train, test, tmp_path, **kwargs):
        results = [run_sweep(spec, train, test, keep_trajectories=True, workers=w, **kwargs)
                   for w in (1, 2)]
        csvs = []
        for w, result in zip((1, 2), results):
            export_csv(result, tmp_path / f"sweep{w}.csv")
            csvs.append((tmp_path / f"sweep{w}.csv").read_bytes())
        assert csvs[0] == csvs[1]
        serial, pooled = ([[traj.points for traj in cell.trajectories] for cell in r.cells] for r in results)
        assert serial == pooled
        assert results[0] == results[1]
        return results[1]

    def test_sonfis_sweep(self, tiny_data, tmp_path):
        cfg = LoopConfig(iterations=8, initial_N=30, n_min=4, n_max=60, seed=3, som=SomParams(epochs=2))
        spec = SweepSpec((0.7, 0.9), (0.001,), (0.5,), (1, 2), 2, cfg, "sonfis", 2)
        result = self.run_both(spec, *tiny_data, tmp_path)
        assert [len(cell.metrics) for cell in result.cells] == [2, 2, 2, 2]

    def test_sorst_sweep(self, tiny_data, tmp_path):
        cfg = LoopConfig(iterations=8, initial_N=30, n_min=4, n_max=60, seed=3, som=SomParams(epochs=2))
        spec = SweepSpec((0.8, 0.95), (0.001,), (0.5,), (2, 3), 2, cfg, "sorst", 2)
        result = self.run_both(spec, *tiny_data, tmp_path)
        assert [len(cell.metrics) for cell in result.cells] == [2, 2, 2, 2]

    def test_lambda_error_stub(self, tiny_data, tmp_path):
        spec = stub_spec(alphas=(0.7, 0.8, 0.9), repeats=2)
        self.run_both(spec, *tiny_data, tmp_path, error_fn=lambda t, g: 10.0)

    def test_cell_failing_at_repeat_1_keeps_repeat_0(self, tiny_data, tmp_path, monkeypatch):
        import sonfis.sweep as sweep_mod

        spec = stub_spec(alphas=(0.7, 0.9), repeats=3)
        failing_seed = derive_seed(spec.base_config.seed, 0, 1)
        real = sweep_mod.run_sonfis

        def run_sonfis(train, test, cfg, p, error_fn=None, workers=None):
            if cfg.seed == failing_seed:
                raise RuntimeError("repeat 1 failed")
            return real(train, test, cfg, p, error_fn=error_fn, workers=workers)

        monkeypatch.setattr(sweep_mod, "run_sonfis", run_sonfis)
        result = self.run_both(spec, *tiny_data, tmp_path, error_fn=lambda t, g: 10.0)
        assert [len(cell.metrics) for cell in result.cells] == [1, 3]
        assert [len(cell.trajectories) for cell in result.cells] == [1, 3]
        assert [cell.error for cell in result.cells] == ["RuntimeError: repeat 1 failed", None]

    def test_failing_cells_submit_no_further_repeats(self, tiny_data):
        # A million repeats per cell: each worker stops a cell at its own
        # first failure of it, so it makes at most one failing call per
        # cell. The counter lives in memory the forked workers share.
        calls = multiprocessing.get_context("fork").Value("l", 0)

        def explode(t, granules):
            with calls.get_lock():
                calls.value += 1
            raise RuntimeError("boom")

        train, test = tiny_data
        spec = stub_spec(alphas=(0.7, 0.8, 0.9), repeats=10**6)
        start = time.perf_counter()
        pooled = run_sweep(spec, train, test, error_fn=explode, workers=2)
        assert time.perf_counter() - start < 30
        assert calls.value <= len(spec.grid) * 2
        assert pooled == run_sweep(spec, train, test, error_fn=explode, workers=1)
        assert [(len(cell.metrics), cell.error) for cell in pooled.cells] == [(0, "RuntimeError: boom")] * 3

    def test_a_pooled_sweep_leaves_nothing(self, tiny_data, settled):
        run_sweep(stub_spec(repeats=2), *tiny_data, error_fn=lambda t, g: 10.0, workers=2)
        assert threading.active_count() == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("system", ["sonfis", "sorst"])
    def test_tasks_run_their_loops_on_one_worker(self, tiny_data, monkeypatch, system):
        import sonfis.sweep as sweep_mod

        name = "run_sonfis" if system == "sonfis" else "run_sorst_as"
        real, seen = getattr(sweep_mod, name), []

        def run(*args, **kwargs):
            seen.append(kwargs["workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, name, run)
        spec = SweepSpec((0.7, 0.9), (0.001,), (0.5,), (3,), 2, stub_spec().base_config, system)
        run_sweep(spec, *tiny_data, workers=1)
        assert seen == [1, 1, 1, 1]

    def test_workers_below_one_rejected(self, tiny_data):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(stub_spec(), *tiny_data, workers=0)


class TestTransitionProfile:
    def run_stub(self, tiny_data, alphas, E=10.0, repeats=1):
        train, test = tiny_data
        spec = stub_spec(alphas=alphas, repeats=repeats)
        return run_sweep(spec, train, test, error_fn=lambda t, g: E)

    def test_locus_at_largest_std_jump(self, tiny_data):
        result = self.run_stub(tiny_data, (0.7, 0.8, 0.9, 0.95))
        profile = profile_from_rows(result_rows(result), "alpha")
        stds = [row["std_NG"] for row in profile["profile"]]
        jumps = np.diff(stds)
        expected_locus = (0.7, 0.8, 0.9, 0.95)[int(np.argmax(jumps)) + 1]
        assert profile["transition_locus"] == expected_locus

    def test_unknown_axis(self, tiny_data):
        result = self.run_stub(tiny_data, (0.8,))
        with pytest.raises(ValueError, match="unknown axis"):
            profile_from_rows(result_rows(result), "delta")

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="no sweep rows"):
            profile_from_rows([], "alpha")

    def test_one_axis_value_is_a_weak_locus(self):
        rows = [{"alpha": 0.8, "mean_NG": 10.0, "std_NG": 2.0}, {"alpha": 0.8, "mean_NG": 12.0, "std_NG": 4.0}]
        profile = profile_from_rows(rows, "alpha")
        assert profile["profile"] == [{"value": 0.8, "mean_NG": 11.0, "std_NG": 3.0}]
        assert profile["transition_locus"] == 0.8 and profile["weak"] is True

    def test_synthetic_std_profile(self):
        # std = (1, 1, 5, 5) over the grid: locus at the 2nd -> 3rd gap
        from sonfis.dynamics import OrderMetrics
        from sonfis.sweep import CellResult, SweepResult

        cfg = LoopConfig(seed=0)
        spec = SweepSpec((0.1, 0.2, 0.3, 0.4), (0.0,), (0.5,), (2,), 1, cfg)
        cells = [
            CellResult(a, 0.0, 0.5, 2, [OrderMetrics(10.0, s, 1, 20, 0.1, "transition")])
            for a, s in zip(spec.alphas, (1.0, 1.0, 5.0, 5.0))
        ]
        profile = profile_from_rows(result_rows(SweepResult(cells)), "alpha")
        assert profile["transition_locus"] == 0.3
        assert not profile["weak"]

    def test_flat_profile_flagged_weak(self):
        from sonfis.dynamics import OrderMetrics
        from sonfis.sweep import CellResult, SweepResult

        cfg = LoopConfig(seed=0)
        spec = SweepSpec((0.1, 0.2, 0.3), (0.0,), (0.5,), (2,), 1, cfg)
        cells = [
            CellResult(a, 0.0, 0.5, 2, [OrderMetrics(10.0, 2.0, 1, 20, 0.1, "transition")])
            for a in spec.alphas
        ]
        profile = profile_from_rows(result_rows(SweepResult(cells)), "alpha")
        assert profile["weak"]

    def test_all_zero_stds_are_a_weak_locus(self):
        # every cell at a fixed point after burn-in: no jump, so no transition
        rows = [{"alpha": a, "mean_NG": 4.0, "std_NG": 0.0} for a in (0.7, 0.75, 0.8)]
        profile = profile_from_rows(rows, "alpha")
        assert profile["weak"] is True

    def test_failed_cell_is_not_the_locus(self):
        # std = (1, failed, 1.1, 5): the failed cell is left out, and the
        # locus is the 1.1 -> 5 jump
        from sonfis.dynamics import OrderMetrics
        from sonfis.sweep import CellResult, SweepResult

        cfg = LoopConfig(seed=0)
        spec = SweepSpec((0.1, 0.2, 0.3, 0.4), (0.0,), (0.5,), (2,), 1, cfg)
        cells = [
            CellResult(a, 0.0, 0.5, 2, [OrderMetrics(10.0, s, 1, 20, 0.1, "transition")])
            for a, s in ((0.1, 1.0), (0.3, 1.1), (0.4, 5.0))
        ]
        cells.insert(1, CellResult(0.2, 0.0, 0.5, 2, [], error="RuntimeError: boom"))
        profile = profile_from_rows(result_rows(SweepResult(cells)), "alpha")
        assert [row["value"] for row in profile["profile"]] == [0.1, 0.3, 0.4]
        assert profile["transition_locus"] == 0.4
        assert not profile["weak"]

    def test_unsorted_axis_profiled_ascending(self):
        # spec order (0.3, 0.1, 0.2) with std (5, 1, 1): consecutive means
        # ascending, so the locus is the 0.2 -> 0.3 jump
        from sonfis.dynamics import OrderMetrics
        from sonfis.sweep import CellResult, SweepResult

        cfg = LoopConfig(seed=0)
        spec = SweepSpec((0.3, 0.1, 0.2), (0.0,), (0.5,), (2,), 1, cfg)
        cells = [
            CellResult(a, 0.0, 0.5, 2, [OrderMetrics(10.0, s, 1, 20, 0.1, "transition")])
            for a, s in zip(spec.alphas, (5.0, 1.0, 1.0))
        ]
        profile = profile_from_rows(result_rows(SweepResult(cells)), "alpha")
        assert [row["value"] for row in profile["profile"]] == [0.1, 0.2, 0.3]
        assert profile["transition_locus"] == 0.3


class TestExportCsv:
    def test_row_count_and_header(self, tiny_data, tmp_path):
        train, test = tiny_data
        spec = stub_spec(alphas=(0.7, 0.75, 0.8, 0.85, 0.9), repeats=3)
        result = run_sweep(spec, train, test, error_fn=lambda t, g: 10.0)
        path = tmp_path / "sweep.csv"
        export_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alpha,beta,gamma,extra,repeat,mean_NG,std_NG,mean_E,regime"
        assert len(lines) == 1 + 5 * 3

    def test_round_trip_profiles_match(self, tiny_data, tmp_path):
        train, test = tiny_data
        spec = stub_spec(alphas=(0.7, 0.8, 0.9), repeats=2)
        result = run_sweep(spec, train, test, error_fn=lambda t, g: 10.0)
        path = tmp_path / "sweep.csv"
        export_csv(result, path)
        rows = load_csv_rows(path)
        assert profile_from_rows(rows, "alpha") == profile_from_rows(result_rows(result), "alpha")

    def test_load_returns_the_exported_rows(self, tiny_data, tmp_path):
        train, test = tiny_data
        spec = stub_spec(alphas=(0.7, 0.9), repeats=2)
        result = run_sweep(spec, train, test, error_fn=lambda t, g: 10.0)
        path = tmp_path / "sweep.csv"
        export_csv(result, path)

        def typed(rows):
            return [{k: (type(v), v) for k, v in row.items()} for row in rows]

        assert typed(load_csv_rows(path)) == typed(result_rows(result))


class TestSpecValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="alphas"):
            SweepSpec((), (0.001,), (0.5,), (2,), 1, LoopConfig(seed=0))

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            SweepSpec((0.9,), (0.001,), (0.5,), (2,), 0, LoopConfig(seed=0))

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="system"):
            SweepSpec((0.9,), (0.001,), (0.5,), (2,), 1, LoopConfig(seed=0), system="mlp")

    def test_burn_in_at_iterations_rejected(self):
        with pytest.raises(ValueError, match=r"^burn_in must be < iterations \(5\), got 5") as info:
            SweepSpec((0.9,), (0.001,), (0.5,), (2,), 1, LoopConfig(iterations=5), burn_in=5)
        assert info.value.field == "burn_in"

    def test_axes_keep_given_values_and_extras_become_ints(self):
        spec = SweepSpec([1, 0.5], (0,), (2,), [2.0, 3], 1, LoopConfig())
        assert (spec.alphas, spec.betas, spec.gammas) == ((1, 0.5), (0,), (2,))
        assert [type(a) for a in spec.alphas] == [int, float]
        assert [type(e) for e in spec.extras] == [int, int]

    def test_grid_is_built_once_per_spec(self, tiny_data, monkeypatch):
        import sonfis.sweep as sweep_module

        calls = []
        product = sweep_module.product
        monkeypatch.setattr(sweep_module, "product", lambda *axes: calls.append(axes) or product(*axes))
        spec = SweepSpec((0.7, 0.9), (0.001, 0.01), (0.5,), (2, 3), 2, LoopConfig(seed=0))
        assert spec.grid == tuple(product(spec.alphas, spec.betas, spec.gammas, spec.extras))
        run_sweep(spec, *tiny_data, error_fn=lambda t, g: 1.0, workers=1)
        assert spec.grid is spec.grid
        assert len(calls) == 1
