import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sonfis import dynamics, kernels, nfis, pool, rst
from sonfis.dataset import Dataset, SplitSpec, derive_seed, gen_synthetic, min_max_normalize, split
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
from sonfis.nfis import NfisTrainParams
from sonfis.som import SomParams, extract_granules, grid_dims, train_som


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

    @pytest.mark.parametrize("alpha, gamma", [(0.9, 0.5), (0.0, 3.0), (1.5, -2.0)])
    def test_zero_beta_ignores_even_an_infinite_error(self, alpha, gamma):
        # 0 * inf is NaN, and the segment planner evaluates an infinite bound.
        p = NoiseParams(alpha, 0.0, gamma)
        assert update_neuron_count(40, math.inf, p, 4, 400) == update_neuron_count(40, 0.0, p, 4, 400)

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


def stepwise_sorst(train, test, cfg, p, error_fn=None):
    """SORST-AS one step at a time through the layers' own calls, as the
    loop ran before segments: the reference for `run_sorst_as`. Returns
    the points, the last rule set and the number of ScalingErrors met."""
    points, N = [], cfg.initial_N
    E, model, failed = float(np.std(test.y)), None, 0
    for t in range(1, cfg.iterations + 1):
        bins = cfg.bins[t - 1] if isinstance(cfg.bins, tuple) else cfg.bins
        dims = grid_dims(N)
        granules = extract_granules(train_som(train, dims, cfg.som, derive_seed(cfg.seed, 0, t)), train)
        if error_fn is not None:
            E = float(error_fn(t, granules))
        else:
            try:
                scaling = rst.fit_scaling(granules, bins, derive_seed(cfg.seed, 1, t))
            except rst.ScalingError:
                failed += 1
            else:
                model = rst.induce_rules(rst.apply_scaling(scaling, granules), scaling)
                E = rst.mse(model, test)
        points.append(TrajectoryPoint(t, N, *dims, len(granules), E, bins))
        N = update_neuron_count(N, E, p, cfg.n_min, cfg.n_max)
    return points, model, failed


def stepwise_sonfis(train, test, cfg, p):
    """SONFIS one step at a time through the layers' own calls: the
    reference for `run_sonfis`. Returns the points and the last rule base."""
    points, N = [], cfg.initial_N
    E, model = float(np.std(test.y)), None
    for t in range(1, cfg.iterations + 1):
        dims = grid_dims(N)
        granules = extract_granules(train_som(train, dims, cfg.som, derive_seed(cfg.seed, 0, t)), train)
        if len(granules) >= cfg.n_rules:
            model = nfis.init_rulebase(granules, cfg.n_rules, seed=derive_seed(cfg.seed, 1, t))
            model = nfis.train_hybrid(model, granules, cfg.nfis)
            E = nfis.rmse(model, test, train.y.min(), train.y.max())
        points.append(TrajectoryPoint(t, N, *dims, len(granules), E, cfg.n_rules))
        N = update_neuron_count(N, E, p, cfg.n_min, cfg.n_max)
    return points, model


@pytest.fixture
def segment_sizes(monkeypatch):
    """The number of steps in each segment the loop runs."""
    sizes = []
    pooled = dynamics._pooled

    def counted(plan, *args):
        sizes.append(len(plan))
        return pooled(plan, *args)

    monkeypatch.setattr(dynamics, "_pooled", counted)
    return sizes


@pytest.fixture
def som_stacks(monkeypatch):
    """The number of SOMs in each `train_som_stack` call of this process."""
    sizes = []
    stack = dynamics.train_som_stack

    def counted(train, dims, params, seeds):
        sizes.append(len(seeds))
        return stack(train, dims, params, seeds)

    monkeypatch.setattr(dynamics, "train_som_stack", counted)
    return sizes


@pytest.fixture
def stack_sizes(monkeypatch):
    """The number of tables in each `rst.fit_scaling_stack` call."""
    sizes = []
    stack = rst.fit_scaling_stack

    def counted(tables, bins, seeds):
        sizes.append(len(tables))
        return stack(tables, bins, seeds)

    monkeypatch.setattr(rst, "fit_scaling_stack", counted)
    return sizes


class TestSegments:
    """`run_sorst_as` fits the steps of a certified-open segment together,
    and gives the points and final rules of the step-by-step loop."""

    SOM = SomParams(epochs=3)

    def check(self, small_data, cfg, p, error_fn=None, stack_sizes=None):
        """The loop's trajectory, once it equals the reference's, and the
        reference's ScalingError count; `stack_sizes` keeps only the
        loop's stacks."""
        train, test = small_data
        points, model, failed = stepwise_sorst(train, test, cfg, p, error_fn)
        if stack_sizes is not None:
            stack_sizes.clear()
        traj = run_sorst_as(train, test, cfg, p, error_fn=error_fn, workers=1)
        assert traj.points == points
        if model is None:
            assert traj.final_model is None
        else:
            assert traj.final_model.to_dict() == model.to_dict()
        return traj, failed

    def test_default_beta_is_one_segment(self, small_data, stack_sizes):
        cfg = LoopConfig(iterations=20, initial_N=40, bins=3, seed=5, som=self.SOM)
        self.check(small_data, cfg, NoiseParams(0.9, 0.001, 0.5), stack_sizes=stack_sizes)
        assert stack_sizes == [20]

    def test_unit_beta_runs_step_by_step(self, small_data, stack_sizes):
        cfg = LoopConfig(iterations=12, initial_N=40, bins=3, seed=5, som=self.SOM)
        self.check(small_data, cfg, NoiseParams(0.9, 1.0, 0.5), stack_sizes=stack_sizes)
        assert stack_sizes == [1] * 12  # no step is open

    def test_open_and_coupled_steps_mix(self, small_data, stack_sizes):
        cfg = LoopConfig(iterations=20, initial_N=40, bins=3, seed=5, som=self.SOM)
        self.check(small_data, cfg, NoiseParams(0.9, 0.05, 0.5), stack_sizes=stack_sizes)
        assert stack_sizes == [2, 3, 4, 9, 1, 1]

    def test_per_step_bins_stack_by_bin_count(self, small_data, stack_sizes):
        bins = (2, 3, 5, 3, 2, 5, 4, 3, 2, 5)
        cfg = LoopConfig(iterations=10, initial_N=40, bins=bins, seed=8, som=self.SOM)
        self.check(small_data, cfg, NoiseParams(0.9, 0.001, 0.5), stack_sizes=stack_sizes)
        assert stack_sizes == [3, 3, 3, 1]  # one segment: bin counts 2, 3, 5, then 4

    def test_scaling_error_carries_within_a_segment(self, small_data, stack_sizes):
        # N runs 10, 9, 8, 7, 6, 5, 5, 5: the 12-bin codebooks of steps 5
        # and 6 collapse, and E carries across the two segments, steps 1-5
        # and 6-8, each fitted as one stack per bin count.
        bins = (3, 3, 12, 3, 12, 12, 3, 3)
        cfg = LoopConfig(iterations=8, initial_N=10, n_min=4, bins=bins, seed=2, som=self.SOM)
        assert self.check(small_data, cfg, NoiseParams(0.9, 0.001, 0.5), stack_sizes=stack_sizes)[1] == 2
        assert stack_sizes == [3, 2, 1, 2]

    def test_error_hook(self, small_data, stack_sizes):
        cfg = LoopConfig(iterations=10, initial_N=40, bins=3, seed=5, som=self.SOM)
        self.check(small_data, cfg, NoiseParams(0.9, 0.5, 0.5), error_fn=lambda t, g: len(g) / 10,
                   stack_sizes=stack_sizes)
        assert stack_sizes == []

    def test_segments_hold_at_most_a_block(self, small_data, stack_sizes, monkeypatch):
        # 4 values (3 inputs and the decision) per granule and 3 bins: a
        # block of 600 elements holds the steps of at most 50 neurons.
        monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 600)
        cfg = LoopConfig(iterations=12, initial_N=70, bins=3, seed=5, som=self.SOM)
        traj, _ = self.check(small_data, cfg, NoiseParams(0.9, 0.001, 0.5), stack_sizes=stack_sizes)
        Ns = [pt.N for pt in traj.points]  # every step is open
        assert stack_sizes[0] == 1 and sum(stack_sizes) == 12
        start = 0
        for size in stack_sizes:
            assert size == 1 or 12 * sum(Ns[start:start + size]) <= 600
            assert start + size == 12 or 12 * sum(Ns[start:start + size + 1]) > 600
            start += size

    def test_a_failing_stack_runs_again_step_by_step(self, small_data, stack_sizes, monkeypatch):
        stack = rst.fit_scaling_stack

        def only_one(tables, bins, seeds):
            if len(tables) > 1:
                raise MemoryError("stack too large")
            return stack(tables, bins, seeds)

        monkeypatch.setattr(rst, "fit_scaling_stack", only_one)
        cfg = LoopConfig(iterations=10, initial_N=40, bins=3, seed=5, som=self.SOM)
        self.check(small_data, cfg, NoiseParams(0.9, 0.001, 0.5), stack_sizes=stack_sizes)

    def test_the_carried_start_bounds_the_segments(self, stack_sizes):
        # Decisions in [0, 1000]: the start std(test.y) is about 290. With 8
        # bins on 4 granules every fit raises ScalingError, so E carries the
        # start, and the law moves N from 4 at E = 290 but not at the fits'
        # bound E = 49: a segment certified by 49 alone would plan N = 4.
        rng = np.random.default_rng(1)
        train, test = split(Dataset(rng.random((140, 3)), rng.uniform(0, 1000, 140)), SplitSpec(100, 40))
        cfg = LoopConfig(iterations=8, initial_N=4, n_min=4, n_max=20, bins=8, seed=1, som=self.SOM)
        p = NoiseParams(0.5, 0.01, 2.0)
        traj, failed = self.check((train, test), cfg, p, stack_sizes=stack_sizes)
        start = float(np.std(test.y))
        assert traj.points[0].E == start > 49 and failed >= 1
        assert update_neuron_count(4, start, p, 4, 20) != update_neuron_count(4, 49.0, p, 4, 20)

    def test_zero_beta_with_an_overflowing_start(self):
        # std(test.y) overflows to inf, and the bound with it; beta = 0
        # still certifies every step. The kernels' squares overflow too.
        rng = np.random.default_rng(0)
        train, test = split(Dataset(rng.random((60, 3)), rng.uniform(0, 1e200, 60)), SplitSpec(40, 20))
        cfg = LoopConfig(iterations=3, initial_N=9)
        p = NoiseParams(0.9, 0.0, 0.5)
        with np.errstate(over="ignore"):
            points, _, _ = stepwise_sorst(train, test, cfg, p)
            assert run_sorst_as(train, test, cfg, p, workers=1).points == points

    def failing_at_4(self, small_data, monkeypatch, p):
        """Runs SORST-AS with the SOMs of step 4 raising, and returns the
        steps of each SOM stack the loop trained."""
        train, test = small_data
        cfg = LoopConfig(iterations=10, initial_N=40, bins=3, seed=5, som=self.SOM)
        seeds = {derive_seed(cfg.seed, 0, t): t for t in range(1, 11)}
        trained = []
        stack = dynamics.train_som_stack

        def failing(data, dims, params, stack_seeds):
            steps = [seeds[seed] for seed in stack_seeds]
            trained.append(steps)
            if 4 in steps:
                raise ValueError("step 4")
            return stack(data, dims, params, stack_seeds)

        monkeypatch.setattr(dynamics, "train_som_stack", failing)
        with pytest.raises(ValueError, match="^step 4$"):
            run_sorst_as(train, test, cfg, p, workers=1)
        return trained

    def test_a_failing_step_raises_its_own_error(self, small_data, monkeypatch):
        # N runs 40, 36, 32, 29, ...: one stack per step.
        trained = self.failing_at_4(small_data, monkeypatch, NoiseParams(0.9, 0.001, 0.5))
        assert [t for steps in trained for t in steps] == [1, 2, 3, 4, 1, 2, 3, 4]  # the segment, then step by step
        assert all(len(steps) == 1 for steps in trained)

    def test_a_failing_stack_of_equal_N_raises_at_its_own_step(self, small_data, monkeypatch):
        # N holds at 40: the segment's ten steps are one stack, which raises;
        # the steps then run one at a time, and step 4 raises again.
        trained = self.failing_at_4(small_data, monkeypatch, NoiseParams(0.5, 0.001, 20.0))
        assert trained == [list(range(1, 11)), [1], [2], [3], [4]]


class TestOpenSteps:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0, 2), st.one_of(st.floats(0, 1e-3), st.floats(0, 10)), st.floats(-10, 10),
           st.integers(1, 500), st.integers(2, 50), st.integers(50, 500), st.floats(0, 100), st.data())
    def test_open_law_is_constant_up_to_the_bound(self, alpha, beta, gamma, N, n_min, n_max, e_max, data):
        """A step whose law value is the same at E = 0 and at E = e_max has
        that value at every E in between."""
        p = NoiseParams(alpha, beta, gamma)
        at_zero = update_neuron_count(N, 0.0, p, n_min, n_max)
        assume(at_zero == update_neuron_count(N, e_max, p, n_min, n_max))
        E = data.draw(st.floats(0, e_max))
        assert update_neuron_count(N, E, p, n_min, n_max) == at_zero


class TestSonfisBound:
    DECISIONS = st.one_of(st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300), st.floats(-1e160, 1e160))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(DECISIONS, min_size=1, max_size=20), st.lists(DECISIONS, min_size=1, max_size=20),
           st.data())
    def test_clipped_rmse_never_exceeds_the_bound(self, train_y, test_y, data):
        """The RMSE `run_sonfis` computes, for any predictions (infinite and
        huge ones included), is at most `nfis.rmse_bound`, also where the
        squares overflow."""
        lo, hi = min(train_y), max(train_y)
        test = Dataset(np.zeros((len(test_y), 1)), test_y)
        pred = np.array(data.draw(st.lists(st.floats(allow_nan=False), min_size=len(test_y),
                                           max_size=len(test_y))))
        with np.errstate(over="ignore"), mock.patch.object(nfis, "predict", lambda fis, X: pred):
            E = nfis.rmse(None, test, lo, hi)
        assert E <= nfis.rmse_bound(test, lo, hi)

    def test_predictions_at_the_far_ends_reach_the_bound(self):
        rng = np.random.default_rng(4)
        lo, hi = 0.1, 0.9
        test = Dataset(np.zeros((97, 1)), rng.uniform(-0.5, 1.5, 97))
        far = np.where(test.y - lo < hi - test.y, hi, lo)
        with mock.patch.object(nfis, "predict", lambda fis, X: far):
            assert nfis.rmse(None, test, lo, hi) == nfis.rmse_bound(test, lo, hi)

    def test_no_bound_where_squares_could_overflow(self):
        """`inf`, which certifies only a step the law would hold at n_max or
        that ignores E (beta = 0)."""
        assert nfis.rmse_bound(Dataset(np.zeros((2, 1)), [0.0, 1e200]), 0.0, 1.0) == np.inf
        assert nfis.rmse_bound(Dataset(np.zeros((2, 1)), [-1.7e308, 1.7e308]), 0.0, 1.0) == np.inf

    def test_empty_test_set_rejected(self):
        empty = Dataset(np.zeros((0, 1)), np.zeros(0))
        fis = nfis.FuzzyRuleBase(np.zeros((2, 1)), np.ones((2, 1)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="^empty test set$"):
            nfis.rmse(fis, empty)
        with pytest.raises(ValueError, match="^empty test set$"):
            nfis.rmse_bound(empty, 0.0, 1.0)


@pytest.fixture
def pool_starts(monkeypatch):
    """Forces the step pool on any segment of two or more steps, and counts
    the processes the loop forks, one entry of 1 each: on 2 workers, one
    per pooled segment."""
    starts = []
    fork = pool._fork

    def counted():
        starts.append(1)
        return fork()

    monkeypatch.setattr(dynamics, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(pool, "_fork", counted)
    return starts


class TestWorkers:
    """A run writes the same trajectory CSV and report for any `workers`."""

    SOM = SomParams(epochs=3)

    def outputs(self, tmp_path, run, data, cfg, p, workers, **kwargs):
        traj = run(*data, cfg, p, workers=workers, **kwargs)
        path = tmp_path / f"trajectory_{workers}.csv"
        traj.to_csv(path)
        return path.read_bytes(), trajectory_report(traj)

    def check(self, tmp_path, small_data, cfg, p, pool_starts, **kwargs):
        """Both systems' outputs on 1 and 2 workers; the pools started."""
        for run in (run_sonfis, run_sorst_as):
            started = len(pool_starts)
            serial = self.outputs(tmp_path, run, small_data, cfg, p, 1, **kwargs)
            assert len(pool_starts) == started
            assert self.outputs(tmp_path, run, small_data, cfg, p, 2, **kwargs) == serial
        return pool_starts

    def test_default_beta_every_step_open(self, tmp_path, small_data, pool_starts):
        cfg = LoopConfig(iterations=12, initial_N=40, seed=5, som=self.SOM)
        assert self.check(tmp_path, small_data, cfg, NoiseParams(0.9, 0.001, 0.5), pool_starts) == [1, 1]

    def test_unit_beta_most_steps_not_open(self, tmp_path, small_data, pool_starts):
        cfg = LoopConfig(iterations=12, initial_N=40, seed=5, som=self.SOM)
        self.check(tmp_path, small_data, cfg, NoiseParams(0.9, 1.0, 0.5), pool_starts)

    def test_per_step_bins(self, tmp_path, small_data, pool_starts):
        bins = (2, 3, 5, 3, 2, 5, 4, 3, 2, 5)
        cfg = LoopConfig(iterations=10, initial_N=40, bins=bins, seed=8, som=self.SOM)
        assert self.check(tmp_path, small_data, cfg, NoiseParams(0.9, 0.001, 0.5), pool_starts)

    def test_error_hook_stays_serial(self, tmp_path, small_data, pool_starts):
        cfg = LoopConfig(iterations=10, initial_N=40, seed=5, som=self.SOM)
        hook = lambda t, g: len(g) / 10  # noqa: E731
        assert self.check(tmp_path, small_data, cfg, NoiseParams(0.9, 0.001, 0.5), pool_starts,
                          error_fn=hook) == []

    def test_runaway_fit_raises_the_same_error(self, small_data, pool_starts):
        cfg = LoopConfig(iterations=6, initial_N=40, seed=5, som=self.SOM,
                         nfis=NfisTrainParams(epochs=3, premise_learning_rate=1e308))
        messages = []
        for workers in (1, 2):
            with pytest.raises(FloatingPointError) as info:
                run_sonfis(*small_data, cfg, NoiseParams(0.9, 0.001, 0.5), workers=workers)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert pool_starts == [1]

    def test_an_overflowing_fit_raises_at_its_own_step(self, small_data, pool_starts, monkeypatch):
        """Step 3's rule base starts with centers so far off that its first
        firing strengths overflow. The segment's six steps train as one
        stack (this process's group of three on 2 workers), which raises;
        the steps then run again one at a time in this process, and step 3's
        stack of one raises."""
        cfg = LoopConfig(iterations=6, initial_N=40, seed=5, som=self.SOM)
        step_of_seed = {derive_seed(cfg.seed, 1, t): t for t in range(1, 7)}
        step_of_fis, stacks = {}, []
        init, stack = nfis.init_rulebase, nfis.train_hybrid_stack

        def far_at_3(granules, n_rules, seed):
            fis = init(granules, n_rules, seed=seed)
            if step_of_seed[seed] == 3:
                fis.centers[:] = 1e308
            step_of_fis[id(fis)] = step_of_seed[seed]
            return fis

        def recorded(fises, granule_sets, params):
            stacks.append([step_of_fis[id(fis)] for fis in fises])
            return stack(fises, granule_sets, params)

        monkeypatch.setattr(nfis, "init_rulebase", far_at_3)
        monkeypatch.setattr(nfis, "train_hybrid_stack", recorded)
        for workers, segment in ((1, [1, 2, 3, 4, 5, 6]), (2, [1, 3, 5])):
            stacks.clear()
            with pytest.raises(FloatingPointError, match="overflow"):
                run_sonfis(*small_data, cfg, NoiseParams(0.9, 0.001, 0.5), workers=workers)
            assert stacks == [segment, [1], [2], [3]]
        assert pool_starts == [1]

    def test_small_segments_stay_serial(self, small_data, monkeypatch):
        starts = []
        monkeypatch.setattr(pool, "_fork", lambda: starts.append(()))
        cfg = LoopConfig(iterations=6, initial_N=40, seed=5, som=self.SOM)
        run_sonfis(*small_data, cfg, NoiseParams(0.9, 0.001, 0.5), workers=2)
        assert 100 * 40 * 6 < dynamics.POOL_MIN_WORK and starts == []

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0, 2), st.one_of(st.just(0.0), st.floats(0, 1e-3)), st.floats(-10, 10),
           st.integers(2, 50), st.integers(50, 500), st.floats(0, 100), st.data())
    def test_round_robin_groups_balance_the_planned_neurons(self, alpha, beta, gamma, n_min, n_max, e_max,
                                                             data):
        """A segment's N series is monotone, so dealing its steps
        round-robin to k groups balances their summed N_t within the
        largest N_t."""
        N = data.draw(st.integers(n_min, n_max))
        cfg = LoopConfig(iterations=40, n_min=n_min, n_max=n_max, initial_N=N)
        plan = dynamics._segment(1, N, cfg, NoiseParams(alpha, beta, gamma), lambda t: 1, e_max, 1)
        Ns = [N for _, N in plan]
        assert Ns == sorted(Ns) or Ns == sorted(Ns, reverse=True)
        for k in range(2, 7):
            loads = [sum(Ns[i::k]) for i in range(min(k, len(plan)))]
            assert max(loads) - min(loads) <= max(Ns)

    @pytest.mark.parametrize("beta, sizes", [(0.001, [20]), (0.2, [2, 3, 14, 1]),
                                             (1.0, [1, 1, 2, 1, 2, 1, 1, 1, 4, 1, 1, 1, 1, 1, 1])])
    def test_sonfis_equals_its_step_by_step_reference(self, small_data, pool_starts, segment_sizes, beta,
                                                      sizes):
        """Certified steps train at the N_t of the step-by-step loop: a bound
        too small would plan a coupled step as open, at a wrong N_t."""
        cfg = LoopConfig(iterations=20, initial_N=40, seed=5, som=self.SOM)
        p = NoiseParams(0.9, beta, 0.5)
        points, model = stepwise_sonfis(*small_data, cfg, p)
        for workers in (1, 2):
            traj = run_sonfis(*small_data, cfg, p, workers=workers)
            assert traj.points == points and traj.final_model.to_dict() == model.to_dict()
        assert segment_sizes == sizes * 2
        assert len(pool_starts) == sum(size > 1 for size in sizes)

    @pytest.mark.parametrize("shifted, beta, sizes", [(True, 0.1, [2, 3, 4, 1, 1, 1, 7, 1]), (False, 0.0, [20]),
                                                      (False, 0.2, [1] * 20)],
                             ids=["shifted", "infinite-open", "infinite-coupled"])
    def test_sonfis_beyond_the_training_range(self, small_data, pool_starts, segment_sizes, shifted, beta,
                                              sizes):
        """Test decisions outside the training range. Shifted by 4, every
        E_t is near the bound, about 4.5, so a bound half as large would
        plan coupled steps as open. With one decision at 1e200 the bound's
        squares and every E_t overflow to inf: beta = 0 still certifies
        every step, and beta = 0.2 none."""
        train, test = small_data
        y = test.y + 4.0 if shifted else np.where(np.arange(len(test)) == 3, 1e200, test.y)
        test = Dataset(test.X, y)
        cfg = LoopConfig(iterations=20, initial_N=40, n_max=60, seed=5, som=self.SOM)
        p = NoiseParams(0.9, beta, 0.5)
        with np.errstate(over="ignore"):
            points, _ = stepwise_sonfis(train, test, cfg, p)
            for workers in (1, 2):
                assert run_sonfis(train, test, cfg, p, workers=workers).points == points
        bound = nfis.rmse_bound(test, train.y.min(), train.y.max())
        assert 4 < bound < 5 if shifted else bound == np.inf
        assert segment_sizes == sizes * 2
        assert len(pool_starts) == sum(size > 1 for size in sizes)

    @pytest.mark.parametrize("p, Ns, stacks", [
        # 40, 20, 10, 5, then pinned at n_min = 4: below the prefilter's
        # threshold.
        (NoiseParams(0.5, 0.001, 0.5), [40, 20, 10, 5] + [4] * 8, ([1, 1, 1, 1, 8], [1, 1, 4])),
        # Held at 40: N * d = 120 takes the prefilter.
        (NoiseParams(0.5, 0.001, 20.0), [40] * 12, ([12], [6])),
    ], ids=["pinned-at-n-min", "held-at-40"])
    def test_equal_N_stacks_equal_their_step_by_step_references(self, small_data, pool_starts, som_stacks, p, Ns,
                                                                stacks):
        """A segment's, or a pooled group's, steps of one N train as one
        stack (this process runs the first of two groups)."""
        cfg = LoopConfig(iterations=12, initial_N=40, n_min=4, seed=5, som=self.SOM)
        points, model = stepwise_sonfis(*small_data, cfg, p)
        rough_points, rough_model, _ = stepwise_sorst(*small_data, cfg, p)
        assert [pt.N for pt in points] == [pt.N for pt in rough_points] == Ns
        for workers, want in zip((1, 2), stacks):
            som_stacks.clear()
            traj = run_sonfis(*small_data, cfg, p, workers=workers)
            assert traj.points == points and traj.final_model.to_dict() == model.to_dict()
            traj = run_sorst_as(*small_data, cfg, p, workers=workers)
            assert traj.points == rough_points and traj.final_model.to_dict() == rough_model.to_dict()
            assert som_stacks == want * 2
        assert len(pool_starts) == 2

    def test_workers_below_one_rejected(self, small_data):
        with pytest.raises(ValueError, match="workers"):
            run_sonfis(*small_data, LoopConfig(iterations=2, initial_N=8), NoiseParams(), workers=0)


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
