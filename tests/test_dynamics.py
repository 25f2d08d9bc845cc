import math

import numpy as np
import pytest

from sonfis.dataset import Dataset, SplitSpec, gen_synthetic, min_max_normalize, split
from sonfis.dynamics import (
    LoopConfig,
    NoiseParams,
    OrderMetrics,
    Trajectory,
    TrajectoryPoint,
    order_metrics,
    run_sonfis,
    run_sorst_as,
    trajectory_report,
    update_neuron_count,
)
from sonfis.som import SomParams


def direct_iteration(N0, E, p, n_min, n_max, steps):
    """Independent Eq.-style iteration: floor then clamp, no package code."""
    out = [N0]
    N = N0
    for _ in range(steps - 1):
        N = min(max(math.floor(p.alpha * N + p.beta * E + p.gamma), n_min), n_max)
        out.append(N)
    return out


@pytest.fixture(scope="module")
def small_data():
    ds = min_max_normalize(gen_synthetic(140, 0.05, 3))
    return split(ds, SplitSpec(100, 40))


class TestUpdateNeuronCount:
    def test_identity(self):
        assert update_neuron_count(50, 0.0, NoiseParams(1.0, 0.0, 0.0), 2, 400) == 50

    def test_floor_of_raw(self):
        # raw = 0.9*100 + 0.001*10 + 0.5 = 90.51
        assert update_neuron_count(100, 10.0, NoiseParams(0.9, 0.001, 0.5), 2, 400) == 90

    def test_clamping(self):
        assert update_neuron_count(4, 0.0, NoiseParams(0.5, 0.0, 0.0), 4, 400) == 4
        assert update_neuron_count(400, 100.0, NoiseParams(1.0, 1.0, 1.0), 4, 400) == 400

    def test_overflowing_raw_clamps_to_n_max(self):
        # 1e308 * 100 is inf; clamping before the floor keeps it an integer.
        assert update_neuron_count(100, 0.0, NoiseParams(1e308, 0, 0), 4, 400) == 400

    @pytest.mark.parametrize("field, value", [("alpha", math.nan), ("beta", math.inf), ("gamma", -math.inf),
                                              ("alpha", 10**400)],
                             ids=["alpha-nan", "beta-inf", "gamma--inf", "alpha-integer-beyond-float"])
    def test_non_finite_noise_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            NoiseParams(**{field: value})

    @pytest.mark.parametrize("alpha", [0.7, 0.8, 0.9])
    def test_stub_iteration_settles_near_fixed_point(self, alpha):
        p = NoiseParams(alpha, 0.001, 0.5)
        fixed = (p.beta * 10.0 + p.gamma) / (1 - alpha)
        traj = direct_iteration(100, 10.0, p, 2, 400, 100)
        assert abs(traj[-1] - fixed) <= 1.0
        assert traj[-1] == traj[-2]  # settled


class TestRunSonfis:
    def test_trajectory_shape(self, small_data):
        train, test = small_data
        cfg = LoopConfig(iterations=5, initial_N=20, seed=1, som=SomParams(epochs=3))
        traj = run_sonfis(train, test, cfg, NoiseParams(0.9, 0.001, 0.5))
        assert len(traj) == 5
        assert [p.t for p in traj.points] == [1, 2, 3, 4, 5]
        for p in traj.points:
            assert p.N == p.dims[0] * p.dims[1]
            assert cfg.n_min <= p.N <= cfg.n_max
            assert p.E >= 0

    def test_determinism(self, small_data):
        train, test = small_data
        cfg = LoopConfig(iterations=6, initial_N=30, seed=9, som=SomParams(epochs=3))
        p = NoiseParams(0.85, 0.001, 0.5)
        t1 = run_sonfis(train, test, cfg, p)
        t2 = run_sonfis(train, test, cfg, p)
        assert t1.points == t2.points

    def test_stub_matches_direct_iteration(self, small_data):
        train, test = small_data
        cfg = LoopConfig(iterations=25, initial_N=100, n_min=2, seed=0, som=SomParams(epochs=2))
        p = NoiseParams(0.9, 0.001, 0.5)
        traj = run_sonfis(train, test, cfg, p, error_fn=lambda t, g: 10.0)
        assert [pt.N for pt in traj.points] == direct_iteration(100, 10.0, p, 2, 400, 25)

    def test_error_bounded_by_decision_range(self, synth_train_test):
        # At t = 25 (N = 9) the 2-rule fit has 8 consequent unknowns for a
        # handful of granules and extrapolates to predictions of -47 .. 63;
        # the raw RMSE there is 101.7. E_t is measured on the output clipped
        # to the [0, 1] training decisions, so it can never exceed 1.
        train, test = synth_train_test
        cfg = LoopConfig(iterations=30, n_rules=2, initial_N=100, seed=2613022947)
        traj = run_sonfis(train, test, cfg, NoiseParams(0.9, 0.0, 0.5))
        assert all(0.0 <= pt.E <= 1.0 for pt in traj.points)

    @pytest.mark.parametrize("system", ["sonfis", "sorst"])
    def test_degenerate_guard_carries_error(self, small_data, system):
        # SONFIS: more rules than any granule set can supply. SORST-AS: 8
        # bins from 4 granules, so every scaling fit raises ScalingError.
        # Either way E stays at the worst-case std of the test decisions.
        train, test = small_data
        som = SomParams(epochs=2)
        p = NoiseParams(0.9, 0.001, 0.5)
        if system == "sonfis":
            cfg = LoopConfig(iterations=3, initial_N=4, n_rules=50, seed=2, som=som)
            traj = run_sonfis(train, test, cfg, p)
        else:
            cfg = LoopConfig(iterations=3, initial_N=4, n_min=4, n_max=4, bins=8, seed=2, som=som)
            traj = run_sorst_as(train, test, cfg, p)
        expected = float(np.std(test.y))
        assert all(pt.E == expected for pt in traj.points)
        assert traj.final_model is None


def test_systems_share_granulation(small_data):
    # same config and stub: only the second layer differs between the two
    # systems, so the granulation and the update law see identical inputs
    train, test = small_data
    cfg = LoopConfig(iterations=8, initial_N=30, n_min=2, seed=4, som=SomParams(epochs=2))
    p = NoiseParams(0.8, 0.5, 1.0)

    seen = []

    def stub(t, granules):
        # The hook gets the granules as the data table the second layers fit.
        assert isinstance(granules, Dataset)
        assert granules.attribute_names == train.attribute_names
        seen.append((t, len(granules)))
        return float(len(granules))

    def series(traj):
        return [(pt.t, pt.N, pt.dims, pt.live_granules, pt.E) for pt in traj.points]

    a = run_sonfis(train, test, cfg, p, error_fn=stub)
    b = run_sorst_as(train, test, cfg, p, error_fn=stub)
    assert series(a) == series(b)
    assert len({pt.N for pt in a.points}) > 1
    assert seen == 2 * [(pt.t, pt.live_granules) for pt in a.points]


class TestRunSorstAs:
    def test_seven_steps_schedule(self, small_data):
        train, test = small_data
        schedule = [2, 3, 4, 5, 6, 7, 8]
        cfg = LoopConfig(iterations=7, initial_N=30, seed=3, som=SomParams(epochs=3), bins=schedule)
        traj = run_sorst_as(train, test, cfg, NoiseParams(0.9, 0.7, 1.0))
        assert len(traj) == 7
        assert [p.extra for p in traj.points] == schedule

    def test_schedule_length_mismatch(self):
        with pytest.raises(ValueError, match="bins"):
            LoopConfig(iterations=7, seed=0, bins=[2, 3])

    @pytest.mark.parametrize("bins", [1, [2, 1, 3]], ids=["scalar", "list-entry"])
    def test_bin_count_below_two(self, bins):
        with pytest.raises(ValueError, match="bins must be >= 2"):
            LoopConfig(iterations=3, bins=bins)

    def test_stub_matches_direct_iteration(self, small_data):
        train, test = small_data
        cfg = LoopConfig(iterations=10, initial_N=50, n_min=2, bins=3, seed=4, som=SomParams(epochs=2))
        p = NoiseParams(0.8, 0.01, 1.0)
        traj = run_sorst_as(train, test, cfg, p, error_fn=lambda t, g: 5.0)
        assert [pt.N for pt in traj.points] == direct_iteration(50, 5.0, p, 2, 400, 10)

    def test_determinism(self, small_data):
        train, test = small_data
        cfg = LoopConfig(iterations=5, initial_N=25, bins=4, seed=6, som=SomParams(epochs=3))
        p = NoiseParams(0.9, 0.7, 1.0)
        t1 = run_sorst_as(train, test, cfg, p)
        t2 = run_sorst_as(train, test, cfg, p)
        assert t1.points == t2.points


def make_traj(Ns, Es=None):
    Es = Es or [0.1] * len(Ns)
    cfg = LoopConfig(iterations=len(Ns), initial_N=Ns[0], n_max=max(400, max(Ns)), seed=0)
    pts = [
        TrajectoryPoint(t + 1, N, 1, N, N, E, 2)
        for t, (N, E) in enumerate(zip(Ns, Es))
    ]
    return Trajectory(pts, cfg, NoiseParams(0.9, 0.001, 0.5))


class TestOrderMetrics:
    def test_constant_is_laminar(self):
        m = order_metrics(make_traj([7] * 10))
        assert m.std_NG == 0.0
        assert m.regime == "laminar"

    def test_alternating_mean_and_std(self):
        m = order_metrics(make_traj([4, 6] * 5))
        assert m.mean_NG == 5.0
        assert m.std_NG == 1.0

    def test_burn_in(self):
        m = order_metrics(make_traj([100] * 5 + [4] * 5), burn_in=5)
        assert m.mean_NG == 4.0

    def test_burn_in_too_large(self):
        with pytest.raises(ValueError):
            order_metrics(make_traj([4, 4]), burn_in=2)

    def test_negative_burn_in_rejected(self):
        # A negative slice start would keep only the last points: here the
        # one point N = 12, read as laminar with std_NG 0.
        with pytest.raises(ValueError, match="^burn_in must be >= 0, got -1"):
            order_metrics(make_traj([16, 14, 13, 12]), burn_in=-1)

    def test_stub_fixed_point_monotone_in_alpha(self):
        # fixed point (beta*E + gamma) / (1 - alpha) grows with alpha
        means = []
        for alpha in (0.7, 0.99):
            p = NoiseParams(alpha, 0.001, 0.5)
            Ns = direct_iteration(100, 10.0, p, 2, 400, 60)
            means.append(np.mean(Ns[30:]))
        assert means[1] > means[0]


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        traj = make_traj([10, 9, 8], [0.5, 0.25, 0.125])
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,N,n1,n2,live_granules,E,extra"
        assert len(lines) == 4
        import csv

        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["N"]) for r in rows] == [10, 9, 8]
        assert [float(r["E"]) for r in rows] == [0.5, 0.25, 0.125]

    def test_report_json(self, small_data):
        import json

        train, test = small_data
        cfg = LoopConfig(iterations=3, initial_N=9, seed=1, som=SomParams(epochs=2))
        traj = run_sonfis(train, test, cfg, NoiseParams(0.9, 0.001, 0.5))
        doc = json.loads(trajectory_report(traj))
        assert doc["config"]["iterations"] == 3
        assert doc["noise"]["alpha"] == 0.9
        assert len(doc["points"]) == 3
        assert doc["final_model"] is not None
