"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The criteria mix exact oracles (fixed-point arithmetic, brute-force rough-set
enumeration, finite differences) with qualitative statistical checks on the
synthetic surrogate data (phase-transition analogues, determinism).
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from sonfis import nfis
from sonfis.cli import execute
from sonfis.dataset import Dataset, SplitSpec, gen_synthetic, min_max_normalize, split
from sonfis.dynamics import LoopConfig, NoiseParams, run_sonfis, run_sorst_as
from sonfis.rst import (
    DecisionTable,
    ScalingMap,
    approximations,
    dependency_degree,
    indiscernibility_partition,
    induce_rules,
)
from sonfis.som import SomGrid, SomParams, grid_dims, quantization_error, train_som
from sonfis.sweep import SweepSpec, run_sweep


# --------------------------------------------------------------------------
# helpers

def report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def tied_ranks(values) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v))
    sv = v[order]
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    rx = tied_ranks(x) - (len(x) + 1) / 2.0
    ry = tied_ranks(y) - (len(y) + 1) / 2.0
    denom = math.sqrt(float((rx**2).sum()) * float((ry**2).sum()))
    if denom == 0.0:
        return float("nan")
    return float((rx * ry).sum() / denom)


@pytest.fixture(scope="module")
def small_data():
    ds = min_max_normalize(gen_synthetic(140, 0.05, 3))
    return split(ds, SplitSpec(100, 40))


def stub_config(**overrides):
    base = dict(iterations=40, initial_N=100, n_min=2, seed=11, som=SomParams(epochs=2))
    base.update(overrides)
    return LoopConfig(**base)


# --------------------------------------------------------------------------
# 1. fixed-point oracle with a constant-error stub

class TestCriterion1:
    @pytest.mark.parametrize("alpha", [0.7, 0.8, 0.9])
    def test_stub_settles_at_fixed_point(self, small_data, alpha):
        train, test = small_data
        start = time.perf_counter()
        p = NoiseParams(alpha, 0.001, 0.5)
        cfg = stub_config(iterations=100)
        traj = run_sonfis(train, test, cfg, p, error_fn=lambda t, g: 10.0)
        elapsed = time.perf_counter() - start
        fixed = (p.beta * 10.0 + p.gamma) / (1.0 - alpha)
        final = traj.points[-1].N
        ok = abs(final - fixed) <= 1.0 and elapsed < 1.0
        report(1, ok, f"alpha={alpha}: N_final={final}, N*={fixed:.2f}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. stub-sweep monotonicity in alpha and gamma

class TestCriterion2:
    def test_mean_ng_strictly_increasing(self, small_data):
        train, test = small_data
        start = time.perf_counter()
        cfg = stub_config()
        stub = lambda t, g: 10.0
        spec_a = SweepSpec((0.7, 0.8, 0.9), (0.001,), (0.5,), (2,), 1, cfg)
        means_a = [c.aggregate()["mean_NG"] for c in run_sweep(spec_a, train, test, error_fn=stub).cells]
        spec_g = SweepSpec((0.8,), (0.001,), (0.5, 2.0, 5.0), (2,), 1, cfg)
        means_g = [c.aggregate()["mean_NG"] for c in run_sweep(spec_g, train, test, error_fn=stub).cells]
        elapsed = time.perf_counter() - start
        inc_a = all(a < b for a, b in zip(means_a, means_a[1:]))
        inc_g = all(a < b for a, b in zip(means_g, means_g[1:]))
        ok = inc_a and inc_g and elapsed < 1.0
        report(2, ok, f"alpha means={np.round(means_a, 2)}, gamma means={np.round(means_g, 2)}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 3. alpha phase-transition analogue on the full SONFIS loop

class TestCriterion3:
    def test_alpha_sweep_order_to_disorder(self, synth_train_test):
        train, test = synth_train_test
        start = time.perf_counter()
        alphas = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
        cfg = LoopConfig(iterations=30, n_rules=2, initial_N=100, seed=0)
        spec = SweepSpec(alphas, (0.001,), (0.5,), (2,), 5, cfg, burn_in=10)
        result = run_sweep(spec, train, test)
        elapsed = time.perf_counter() - start
        assert all(c.error is None for c in result.cells)
        means = [c.aggregate()["mean_NG"] for c in result.cells]
        stds = [float(c.std_NG_values.mean()) for c in result.cells]
        rho = spearman(alphas, means)
        fluct = stds[-1] >= 3.0 * stds[0]
        ok = rho >= 0.8 and fluct and elapsed < 120.0
        report(3, ok, f"spearman={rho:.3f}, std bottom={stds[0]:.3f} top={stds[-1]:.3f}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 4. beta sweep analogue

class TestCriterion4:
    def test_beta_sweep_monotone(self, synth_train_test):
        train, test = synth_train_test
        start = time.perf_counter()
        # The betas must reach where beta*E_t can move the floored law. At
        # alpha = 0.9, gamma = 0.5 the raw 0.9*N + 0.5 lies 0.1 to 1.0 below
        # the next integer, so floor moves only once beta*E_t >= 0.1. E_t is
        # the RMSE of a [0, 1] decision (median 0.107 over this sweep's 900
        # steps), so the paper's endpoints 2e-4 .. 8.5e-3 would need
        # E_t >= 11.8 and every beta would give the same trajectory; the
        # paper's error scale is evidently ~1e3 larger than this surrogate's.
        # The endpoints are therefore the paper's x 1e3, which puts
        # beta_max * median(E_t) at about one lattice step.
        betas = tuple(np.geomspace(0.2, 8.5, 6))
        cfg = LoopConfig(iterations=30, n_rules=2, initial_N=100, seed=0)
        spec = SweepSpec((0.9,), betas, (0.5,), (2,), 5, cfg, burn_in=10)
        result = run_sweep(spec, train, test)
        elapsed = time.perf_counter() - start
        assert all(c.error is None for c in result.cells)
        means = [c.aggregate()["mean_NG"] for c in result.cells]
        rho = spearman(betas, means)
        nondec = all(a <= b for a, b in zip(means, means[1:]))
        ok = nondec and rho >= 0.8 and elapsed < 120.0
        report(4, ok, f"means={np.round(means, 3)}, spearman={rho}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 5. exhaustive rough-set equivalence against a naive set-theoretic oracle
#
# Every decision table with <= 6 objects, <= 2 condition attributes and
# <= 3 bins is covered. Object order and bin labels are quotiented out:
# the property tests in test_rst.py establish that all three operations are
# equivariant under object permutations and per-column bin relabelings, so
# one representative per orbit suffices. Tables over bins {0,1,2} subsume
# the 2-bin tables.

def oracle_block(rows, attrs, i):
    return frozenset(
        j for j in range(len(rows)) if all(rows[j][a] == rows[i][a] for a in attrs)
    )


def oracle_partition(rows, attrs):
    return {oracle_block(rows, attrs, i) for i in range(len(rows))}


def oracle_approximations(rows, attrs, concept):
    lower, upper = set(), set()
    for i in range(len(rows)):
        blk = oracle_block(rows, attrs, i)
        if blk <= concept:
            lower |= blk
        if blk & concept:
            upper |= blk
    return lower, upper


def oracle_dependency(rows, conds, decisions):
    pos = sum(
        1
        for i in range(len(rows))
        if len({decisions[j] for j in oracle_block(rows, conds, i)}) == 1
    )
    return pos / len(rows)


def orbit_representatives(n_cols, bins, max_objects):
    """One canonical table per orbit of the per-column relabeling group
    acting on row-type multisets (object order is already quotiented out by
    the multiset encoding)."""
    types = list(itertools.product(range(bins), repeat=n_cols))
    index = {t: k for k, t in enumerate(types)}
    actions = []
    for perms in itertools.product(itertools.permutations(range(bins)), repeat=n_cols):
        actions.append([index[tuple(p[v] for p, v in zip(perms, t))] for t in types])
    seen = set()
    reps = []
    for n_obj in range(1, max_objects + 1):
        for key in itertools.combinations_with_replacement(range(len(types)), n_obj):
            if key in seen:
                continue
            reps.append([types[k] for k in key])
            for act in actions:
                seen.add(tuple(sorted(act[k] for k in key)))
    return reps


class TestCriterion5:
    def check_table(self, rows, n_attrs):
        conds = [r[:n_attrs] for r in rows]
        decs = [r[n_attrs] for r in rows]
        table = DecisionTable(np.array(conds), np.array(decs))
        subsets = [
            attrs
            for size in range(n_attrs + 1)
            for attrs in itertools.combinations(range(n_attrs), size)
        ]
        for attrs in subsets:
            impl = {frozenset(b) for b in indiscernibility_partition(table, attrs)}
            assert impl == oracle_partition(conds, attrs), (rows, attrs)
        all_attrs = tuple(range(n_attrs))
        for v in sorted(set(decs)):
            concept = {i for i, d in enumerate(decs) if d == v}
            lo, up = approximations(table, all_attrs, concept)
            assert (lo, up) == oracle_approximations(conds, all_attrs, concept), (rows, v)
        for attrs in subsets[1:]:
            assert dependency_degree(table, attrs) == oracle_dependency(conds, attrs, decs), (rows, attrs)

    def test_exhaustive_equivalence(self):
        start = time.perf_counter()
        total = 0
        for n_attrs in (1, 2):
            reps = orbit_representatives(n_attrs + 1, 3, 6)
            total += len(reps)
            for rows in reps:
                self.check_table(rows, n_attrs)
        elapsed = time.perf_counter() - start
        ok = elapsed < 30.0
        report(5, ok, f"{total} orbit representatives all match the oracle, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 6. hand-worked rough-set cases on table T0

class TestCriterion6:
    def test_t0_hand_cases(self):
        table = DecisionTable(np.array([[0], [0], [1], [1]]), np.array([0, 0, 0, 1]))
        concept = {0, 1, 2}  # objects with decision 0
        lower, upper = approximations(table, (0,), concept)
        gamma = dependency_degree(table, (0,))
        scaling = ScalingMap([np.array([0.25, 0.75])], np.array([0.25, 0.75]))
        rules = induce_rules(table, scaling)
        ambiguous = rules.descriptors[:, 0].tolist().index(1)
        decision = int(rules.decisions[ambiguous])
        ok = (
            lower == {0, 1}
            and upper == {0, 1, 2, 3}
            and gamma == 0.5
            and decision == 1
            and not rules.certain[ambiguous]
        )
        report(6, ok, f"lower={lower}, upper={upper}, gamma={gamma}, ambiguous->d={decision}")


# --------------------------------------------------------------------------
# 7. NFIS exactness: least-squares recovery and analytic gradients

class TestCriterion7:
    def test_exact_linear_single_rule(self):
        rng = np.random.default_rng(42)
        X = rng.uniform(size=(30, 3))
        y = 0.3 * X[:, 0] - 0.2 * X[:, 1] + 0.7 * X[:, 2] + 0.05
        granules = Dataset(X, y)
        fis = nfis.init_rulebase(granules, 1, seed=0)
        fis = nfis.train_hybrid(fis, granules, nfis.NfisTrainParams(epochs=1))
        Xt = rng.uniform(size=(40, 3))
        yt = 0.3 * Xt[:, 0] - 0.2 * Xt[:, 1] + 0.7 * Xt[:, 2] + 0.05
        err = nfis.rmse(fis, Dataset(Xt, yt))
        ok = err < 1e-6
        report(7, ok, f"single-rule linear RMSE={err:.2e}")

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        eps = 1e-6
        worst = 0.0
        for _ in range(20):
            n, R, d = 8, int(rng.integers(1, 4)), int(rng.integers(1, 4))
            fis = nfis.FuzzyRuleBase(
                rng.normal(size=(R, d)),
                rng.uniform(0.3, 1.0, size=(R, d)),
                rng.normal(size=(R, d + 1)),
            )
            X = rng.normal(size=(n, d))
            t = rng.normal(size=n)

            def loss(f):
                return float(np.mean((nfis.predict(f, X) - t) ** 2))

            gc, gs = nfis._premise_gradients(fis, X, t, nfis._firing(fis, X))
            for analytic, attr in ((gc, "centers"), (gs, "widths")):
                arr = getattr(fis, attr)
                for idx in np.ndindex(arr.shape):
                    hi = nfis.FuzzyRuleBase(fis.centers.copy(), fis.widths.copy(), fis.coeffs.copy())
                    lo = nfis.FuzzyRuleBase(fis.centers.copy(), fis.widths.copy(), fis.coeffs.copy())
                    getattr(hi, attr)[idx] += eps
                    getattr(lo, attr)[idx] -= eps
                    fd = (loss(hi) - loss(lo)) / (2 * eps)
                    rel = abs(analytic[idx] - fd) / max(1.0, abs(fd))
                    worst = max(worst, rel)
        ok = worst < 1e-5
        report(7, ok, f"worst relative gradient deviation={worst:.2e} over 20 instances")


# --------------------------------------------------------------------------
# 8. SOM properties

class TestCriterion8:
    def test_single_neuron_centroid(self):
        ds = min_max_normalize(gen_synthetic(150, 0.1, 12))
        grid = train_som(ds, (1, 1), SomParams(epochs=5), seed=0)
        dev = float(np.abs(grid.prototypes[0] - ds.X.mean(axis=0)).max())
        ok = dev < 1e-9
        report(8, ok, f"single-neuron deviation from centroid={dev:.2e}")

    def test_training_never_raises_quantization_error(self):
        worst = -np.inf
        for seed in range(10):
            ds = min_max_normalize(gen_synthetic(200, 0.1, 100 + seed))
            dims, N = (3, 4), 12
            # initial prototypes per the documented contract: sampled from
            # the distinct records without replacement
            rng = np.random.default_rng(seed)
            uniq = np.unique(ds.X, axis=0)
            init = SomGrid(*dims, uniq[rng.choice(len(uniq), size=N, replace=False)].copy())
            trained = train_som(ds, dims, SomParams(epochs=10), seed=seed)
            worst = max(worst, quantization_error(trained, ds) - quantization_error(init, ds))
        ok = worst <= 0.0
        report(8, ok, f"max(QE_final - QE_initial) over 10 datasets={worst:.4f}")

    def test_grid_dims_brute_force(self):
        bad = []
        for N in range(1, 1001):
            expected = max(d for d in range(1, N + 1) if N % d == 0 and d * d <= N)
            if grid_dims(N) != (expected, N // expected):
                bad.append(N)
        ok = not bad
        report(8, ok, f"grid_dims matches brute force for N in 1..1000 (mismatches: {bad[:5]})")


# --------------------------------------------------------------------------
# 9. SORST-AS bin-count sensitivity

class TestCriterion9:
    def test_best_bins_at_least_as_good_as_two(self, synth_train_test):
        train, test = synth_train_test
        start = time.perf_counter()
        cfg = LoopConfig(iterations=7, initial_N=100, seed=0)
        spec = SweepSpec((0.9,), (0.7,), (1.0,), tuple(range(2, 9)), 5, cfg, system="sorst")
        result = run_sweep(spec, train, test)
        elapsed = time.perf_counter() - start
        assert all(c.error is None for c in result.cells)
        mean_mse = {c.extra: c.aggregate()["mean_E"] for c in result.cells}
        best_bins = min(mean_mse, key=mean_mse.get)
        ok = mean_mse[best_bins] <= mean_mse[2] and elapsed < 120.0
        report(9, ok, f"best bins={best_bins} (MSE {mean_mse[best_bins]:.3f}) vs 2 bins (MSE {mean_mse[2]:.3f}), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 10. bit-identical re-execution of runs and sweeps through the CLI

class TestCriterion10:
    CONFIG = {
        "dataset": {"synthetic": {"n": 140, "noise_sd": 0.05, "seed": 3}},
        "split": {"n_train": 100, "n_test": 40},
        "iterations": 5,
        "initial_N": 20,
        "som": {"epochs": 3},
        "nfis": {"epochs": 3},
    }

    def run_twice(self, tmp_path, args_fn):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert execute(args_fn(out)) == 0
            outs.append(out)
        return outs

    def test_runs_and_sweeps_bit_identical(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, sweep={"alphas": [0.8, 0.9], "repeats": 2, "burn_in": 0})))
        identical = {}
        for sub, artifact in (
            ("run-sonfis", "trajectory_sonfis.csv"),
            ("run-sorst", "trajectory_sorst.csv"),
            ("sweep", "sweep.csv"),
        ):
            a, b = self.run_twice(tmp_path / sub, lambda out: [sub, "--config", str(cfg), "--out", str(out)])
            identical[sub] = (a / artifact).read_bytes() == (b / artifact).read_bytes()
        ok = all(identical.values())
        report(10, ok, f"bit-identical outputs: {identical}")
