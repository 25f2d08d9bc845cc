import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonfis import kernels, nfis
from sonfis.dataset import Dataset
from sonfis.nfis import (
    WIDTH_FLOOR_INIT,
    FuzzyRuleBase,
    NfisTrainParams,
    _firing,
    _kmeans,
    _premise_gradients,
    _rows,
    _solve_consequents,
    _stacked,
    init_rulebase,
    predict,
    rmse,
    train_hybrid,
    train_hybrid_stack,
)


def firing(fis, X):
    """`_firing` of one rule base on every row."""
    return _firing(fis.centers, fis.widths, X)


def stack_of_one(fis, X, t):
    """The rows of a stack of one fit, and its centers and widths per row."""
    rows, stack = _rows([Dataset(X, t)]), _stacked([fis])
    return rows, stack.centers[rows.owner], stack.widths[rows.owner]


def solve_one(fis, X, t, w):
    """`_solve_consequents` of a stack of one."""
    rows, centers, _ = stack_of_one(fis, X, t)
    return _solve_consequents(rows, w, centers)[0]


def gradients_one(fis, X, t, w):
    """`_premise_gradients` of a stack of one."""
    rows, centers, widths = stack_of_one(fis, X, t)
    gc, gs = _premise_gradients(rows, w, centers, widths, fis.coeffs[None])
    return gc[0], gs[0]


def masked_premise_gradients(fis, X, t, w):
    """The premise gradients written out over the rows that fire, with the
    full row count in the mean."""
    f = X @ fis.coeffs[:, :-1].T + fis.coeffs[:, -1]
    sw = w.sum(axis=1)
    ok = sw > 0
    Xo, wo, fo, swo = X[ok], w[ok], f[ok], sw[ok]
    yo = (wo * fo).sum(axis=1) / swo
    dE_dw = (2.0 / len(X)) * (yo - t[ok])[:, None] * (fo - yo[:, None]) / swo[:, None]
    diff = Xo[:, None, :] - fis.centers[None, :, :]
    common = (dE_dw * wo)[:, :, None]
    gc = (common * diff / fis.widths[None, :, :] ** 2).sum(axis=0)
    gs = (common * diff**2 / fis.widths[None, :, :] ** 3).sum(axis=0)
    return gc, gs


def distance_matrix_kmeans(points, k, seed):
    """The Lloyd loop `_kmeans` replaced, kept as its reference where no
    cluster empties: a point-to-center distance matrix, then one masked mean
    per cluster. An empty cluster took the point farthest from its center by
    the old distances, after lower clusters' means were already taken."""
    rng = np.random.default_rng(seed)
    centers = points[rng.choice(len(points), size=k, replace=False)].copy()
    labels = np.zeros(len(points), dtype=np.int64)
    for _ in range(nfis.KMEANS_ITERS):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        for j in range(k):
            mask = new_labels == j
            if mask.any():
                centers[j] = points[mask].mean(axis=0)
            else:
                far = int(np.argmax(d2[np.arange(len(points)), new_labels]))
                centers[j] = points[far]
                new_labels[far] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels


def per_cluster_std(X, labels, k):
    """Rule widths as one `std` per cluster, floored, with the floor for
    clusters of fewer than two members."""
    widths = np.full((k, X.shape[1]), WIDTH_FLOOR_INIT)
    for j in range(k):
        members = X[labels == j]
        if len(members) > 1:
            widths[j] = np.maximum(members.std(axis=0), WIDTH_FLOOR_INIT)
    return widths


class TestKmeans:
    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_the_distance_matrix_loop(self, monkeypatch, d):
        # Where no cluster empties, the batch-SOM steps give the old loop's
        # bytes: distances and member sums both add in the same order at d < 8.
        accumulate = nfis.kernels.accumulate_by_bmu
        emptied = []

        def spy(data, bmus, m):
            sums, counts = accumulate(data, bmus, m)
            emptied.append(not counts.all())
            return sums, counts

        monkeypatch.setattr(nfis.kernels, "accumulate_by_bmu", spy)
        rng = np.random.default_rng(d)
        for seed in range(20):
            points = rng.random((int(rng.integers(20, 80)), d))
            k = int(rng.integers(2, 9))
            got, want = _kmeans(points, k, seed), distance_matrix_kmeans(points, k, seed)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1])
        assert emptied and not any(emptied)

    def test_empty_clusters_take_the_farthest_points_in_index_order(self):
        # Seed 2 starts all three centers on the point 0, so every point joins
        # cluster 0. Cluster 1 takes the farthest point, 9, and cluster 2 then
        # the farthest left, 4; the means follow the final labels.
        points = np.array([[0.0], [0.0], [0.0], [0.0], [4.0], [9.0]])
        assert (np.random.default_rng(2).choice(6, size=3, replace=False) < 4).all()
        centers, labels = _kmeans(points, 3, seed=2)
        assert centers[:, 0].tolist() == [0.0, 9.0, 4.0]
        assert labels.tolist() == [0, 0, 0, 0, 2, 1]


class TestInitRulebase:
    @pytest.mark.parametrize("d", [2, 3])
    def test_widths_equal_the_per_cluster_std(self, d):
        rng = np.random.default_rng(10 + d)
        singletons = 0
        for seed in range(30):
            n = int(rng.integers(8, 40))
            X = np.vstack([rng.random((n - 1, d)), np.full((1, d), 5.0)])  # one far outlier
            k = int(rng.integers(2, 7))
            gs = Dataset(X, rng.random(n))
            fis = init_rulebase(gs, k, seed)
            centers, labels = _kmeans(X, k, seed)
            assert fis.centers.tobytes() == centers.tobytes()
            assert fis.widths.tobytes() == per_cluster_std(X, labels, k).tobytes()
            singletons += int((np.bincount(labels, minlength=k) == 1).sum())
        assert singletons > 0

    def test_single_rule_at_centroid(self):
        gs = Dataset([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]], [1, 2, 3])
        fis = init_rulebase(gs, 1, seed=0)
        assert np.allclose(fis.centers[0], gs.X.mean(axis=0))

    def test_two_separated_clusters(self):
        gs = Dataset([[0.0], [0.01], [1.0], [0.99]], [0, 0, 1, 1])
        fis = init_rulebase(gs, 2, seed=1)
        centers = np.sort(fis.centers[:, 0])
        assert centers[0] == pytest.approx(0.005)
        assert centers[1] == pytest.approx(0.995)

    def test_width_floor(self):
        gs = Dataset([[0.5], [0.5], [0.5], [0.9]], [0, 0, 0, 1])
        fis = init_rulebase(gs, 2, seed=2)
        assert (fis.widths >= 0.1).all()

    def test_too_few_granules(self):
        gs = Dataset([[0.0]], [1])
        with pytest.raises(ValueError, match="granules"):
            init_rulebase(gs, 2, seed=0)


class TestInfer:
    def test_single_rule_is_its_consequent(self):
        fis = FuzzyRuleBase(np.array([[0.0]]), np.array([[1.0]]), np.array([[2.0, 1.0]]))
        assert predict(fis, [[3.0]])[0] == pytest.approx(7.0)

    def test_symmetric_rules_average(self):
        fis = FuzzyRuleBase(
            np.array([[0.0], [2.0]]),
            np.array([[1.0], [1.0]]),
            np.array([[0.0, 0.0], [0.0, 10.0]]),
        )
        assert predict(fis, [[1.0]])[0] == pytest.approx(5.0)

    def test_hand_evaluated_weighting(self):
        # w1 = exp(-0.125), w2 = exp(-1.125); output = 10*w2/(w1+w2)
        fis = FuzzyRuleBase(
            np.array([[0.0], [2.0]]),
            np.array([[1.0], [1.0]]),
            np.array([[0.0, 0.0], [0.0, 10.0]]),
        )
        w1, w2 = np.exp(-0.125), np.exp(-1.125)
        assert predict(fis, [[0.5]])[0] == pytest.approx(10 * w2 / (w1 + w2))
        assert predict(fis, [[0.5]])[0] == pytest.approx(2.689, abs=1e-3)

    def test_underflow_falls_back_to_nearest_center(self):
        fis = FuzzyRuleBase(
            np.array([[0.0], [1.0]]),
            np.full((2, 1), 1e-3),
            np.array([[0.0, -5.0], [0.0, 5.0]]),
        )
        assert predict(fis, [[0.8]])[0] == pytest.approx(5.0)
        assert predict(fis, [[0.1]])[0] == pytest.approx(-5.0)

    def test_underflow_tie_goes_to_the_lower_rule(self):
        # Row 0 lies exactly halfway between the two centers, row 1 nearer
        # the second; neither fires.
        fis = FuzzyRuleBase(np.array([[0.0, 0.0], [1.0, 1.0]]), np.full((2, 2), 1e-3),
                            np.array([[0.0, 0.0, -5.0], [0.0, 0.0, 5.0]]))
        X = np.array([[0.5, 0.5], [0.9, 0.8]])
        assert firing(fis, X).sum(axis=1).tolist() == [0.0, 0.0]
        assert predict(fis, X).tolist() == [-5.0, 5.0]
        # One-hot weights: row 0 fits rule 0 alone and row 1 rule 1 alone,
        # each by the minimum-norm solution t * [x, 1] / |[x, 1]|**2.
        t = np.array([3.0, 2.0])
        expected = [t[0] * np.array([0.5, 0.5, 1.0]) / 1.5, t[1] * np.array([0.9, 0.8, 1.0]) / 2.45]
        assert np.allclose(solve_one(fis, X, t, firing(fis, X)), expected)

    def test_output_is_convex_combination_of_consequents(self):
        rng = np.random.default_rng(0)
        fis = FuzzyRuleBase(rng.random((3, 2)), rng.uniform(0.2, 1, (3, 2)), rng.normal(0, 1, (3, 3)))
        X = rng.random((200, 2))
        f = X @ fis.coeffs[:, :-1].T + fis.coeffs[:, -1]
        y = predict(fis, X)
        assert (y >= f.min(axis=1) - 1e-12).all()
        assert (y <= f.max(axis=1) + 1e-12).all()


def one_pass_predict(fis, X):
    """`predict` over all rows at once, as it was before its row blocks."""
    f = X @ fis.coeffs[:, :-1].T + fis.coeffs[:, -1]
    z = (X[:, None, :] - fis.centers[None, :, :]) / fis.widths[None, :, :]
    w = np.exp(-0.5 * (z**2).sum(axis=2))
    sw = w.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (w * f).sum(axis=1) / sw
    ok = sw > 0
    out[~ok] = f[~ok, kernels.assign_bmus(X[~ok], fis.centers)]
    return out


class TestPredictBlocks:
    @pytest.mark.parametrize("n, R, d, block", [(50, 3, 2, 42), (52, 3, 2, 42), (97, 5, 3, 105), (10, 4, 8, 96),
                                                (200, 25, 3, 1000), (301, 2, 9, 36), (5, 7, 2, 1)])
    def test_blocks_give_the_one_pass_output(self, monkeypatch, n, R, d, block):
        # Narrow rules leave some rows firing nothing, so the nearest-center
        # fallback runs inside blocks; each size leaves a short last block,
        # and a block below one row's R * d elements holds one row.
        rng = np.random.default_rng(n)
        fis = FuzzyRuleBase(rng.random((R, d)), rng.uniform(0.005, 0.1, (R, d)), rng.normal(0, 1, (R, d + 1)))
        X = fis.centers[rng.integers(0, R, n)] + rng.normal(0, 0.05, (n, d)) + rng.choice([0.0, 6.0], (n, 1))
        fires = firing(fis, X).sum(axis=1) > 0
        assert fires.any() and not fires.all()
        monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", block)
        rows = max(1, block // (R * d))
        assert rows == 1 or n % rows != 0
        assert predict(fis, X).tobytes() == one_pass_predict(fis, X).tobytes()

    def test_rmse_memory_is_bounded(self):
        # One pass held (n, R, d) temporaries: 152.6 MiB here. What is left
        # is mostly the (n, R) consequent values, 19.1 MiB.
        rng = np.random.default_rng(3)
        fis = FuzzyRuleBase(rng.random((25, 3)), np.full((25, 3), 0.2), rng.normal(0, 1, (25, 4)))
        test = Dataset(rng.random((10**5, 3)), rng.random(10**5))
        tracemalloc.start()
        try:
            E = rmse(fis, test, 0.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        pred = np.clip(one_pass_predict(fis, test.X), 0.0, 1.0)
        assert E == float(np.sqrt(np.mean((pred - test.y) ** 2)))


class TestTrainHybrid:
    def test_empty_granule_set(self):
        fis = FuzzyRuleBase(np.array([[0.0]]), np.array([[1.0]]), np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError, match="empty granule set"):
            train_hybrid(fis, Dataset(np.empty((0, 1)), []), NfisTrainParams())

    def test_exact_linear_recovery_single_rule(self):
        rng = np.random.default_rng(1)
        X = rng.random((20, 2))
        y = 2 * X[:, 0] + 3 * X[:, 1] + 1
        gs = Dataset(X, y)
        fis = init_rulebase(gs, 1, seed=0)
        fis = train_hybrid(fis, gs, NfisTrainParams(epochs=1))
        pred = predict(fis, X)
        assert np.sqrt(np.mean((pred - y) ** 2)) < 1e-9
        # against a direct normal-equations solve
        A = np.column_stack([X, np.ones(len(X))])
        beta = np.linalg.solve(A.T @ A, A.T @ y)
        assert np.allclose(fis.coeffs[0], beta, atol=1e-8)

    def test_single_rule_matches_linear_regression_after_epochs(self):
        rng = np.random.default_rng(2)
        X = rng.random((30, 2))
        y = rng.random(30)
        gs = Dataset(X, y)
        fis = train_hybrid(init_rulebase(gs, 1, seed=0), gs, NfisTrainParams(epochs=5))
        A = np.column_stack([X, np.ones(len(X))])
        beta, *_ = np.linalg.lstsq(A, y, rcond=None)
        assert np.abs(predict(fis, X) - A @ beta).max() < 1e-9

    def test_constant_decisions_are_reproduced(self):
        rng = np.random.default_rng(3)
        gs = Dataset(rng.random((10, 2)), np.full(10, 0.7))
        fis = train_hybrid(init_rulebase(gs, 2, seed=1), gs, NfisTrainParams(epochs=3))
        assert np.allclose(predict(fis, rng.random((5, 2))), 0.7, atol=1e-8)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        gs = Dataset(rng.random((15, 2)), rng.random(15))
        p = NfisTrainParams(epochs=4)
        f1 = train_hybrid(init_rulebase(gs, 3, seed=5), gs, p)
        f2 = train_hybrid(init_rulebase(gs, 3, seed=5), gs, p)
        assert np.array_equal(f1.centers, f2.centers)
        assert np.array_equal(f1.widths, f2.widths)
        assert np.array_equal(f1.coeffs, f2.coeffs)

    def test_least_squares_never_increases_training_rmse(self):
        rng = np.random.default_rng(6)
        X = rng.random((25, 2))
        y = rng.random(25)
        gs = Dataset(X, y)
        fis = init_rulebase(gs, 3, seed=2)
        fis.coeffs = rng.normal(0, 1, fis.coeffs.shape)
        before = np.sqrt(np.mean((predict(fis, X) - y) ** 2))
        fis.coeffs = solve_one(fis, X, y, firing(fis, X))
        after = np.sqrt(np.mean((predict(fis, X) - y) ** 2))
        assert after <= before + 1e-12

    def test_underdetermined_uses_minimum_norm(self):
        # 2 granules, 2 rules, 2 inputs: 6 consequent parameters
        gs = Dataset([[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0])
        fis = train_hybrid(init_rulebase(gs, 2, seed=0), gs, NfisTrainParams(epochs=1))
        assert np.abs(predict(fis, gs.X) - gs.y).max() < 1e-9

    def test_overflowing_premise_step_raises(self):
        # A step of 1e308 throws the centers so far that the next epoch's
        # firing strengths overflow; the non-finite values never reach lstsq.
        rng = np.random.default_rng(7)
        gs = Dataset(rng.random((30, 2)), rng.random(30))
        with pytest.raises(FloatingPointError, match="overflow"):
            train_hybrid(init_rulebase(gs, 2, seed=0), gs, NfisTrainParams(epochs=3, premise_learning_rate=1e308))


def written_out_fit(fis, granules, params):
    """`train_hybrid` of one rule base, its formula written out on its own
    arrays: the reference each member of a stack must equal."""
    X, t = granules.X, granules.y
    (n, d), R = X.shape, fis.n_rules
    centers, widths = fis.centers, fis.widths
    X1 = np.column_stack([X, np.ones(n)])
    lr = params.premise_learning_rate
    with np.errstate(over="raise", invalid="raise"):
        for _ in range(params.epochs):
            z = (X[:, None, :] - centers[None, :, :]) / widths[None, :, :]
            w = np.exp(-0.5 * (z**2).sum(axis=2))
            sw = w.sum(axis=1)
            ok = sw > 0
            wn = w / np.where(ok, sw, 1.0)[:, None]
            wn[np.flatnonzero(~ok), kernels.assign_bmus(X[~ok], centers)] = 1.0
            design = (wn[:, :, None] * X1[:, None, :]).reshape(n, R * (d + 1))
            coeffs = np.linalg.lstsq(design, t, rcond=None)[0].reshape(R, d + 1)
            gc, gs = masked_premise_gradients(FuzzyRuleBase(centers, widths, coeffs), X, t, w)
            centers = centers - lr * gc
            widths = np.maximum(widths - lr * gs, 0.01)
    return centers, widths, coeffs


@st.composite
def hybrid_stacks(draw):
    """1 to 8 (rule base, granules) pairs of one R and d, each of 1 to 120
    rows, often fewer than the R * (d + 1) consequent unknowns. A member may
    have some or all of its rows far outside its narrow rules, so that
    their total firing underflows; all-zero decisions, which the first
    solve fits exactly (r = 0, so terms with a negative center offset are
    -0.0); or centers at exactly 0.0. Consequents start at zero for the
    exact fits and random otherwise."""
    R, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = st.tuples(st.one_of(st.integers(1, 20), st.integers(1, 120)), st.sampled_from(["none", "some", "all"]),
                      st.booleans(), st.booleans())
    members = []
    for n, underflow, exact, zero_centres in draw(st.lists(shape, min_size=1, max_size=8)):
        X, t = rng.random((n, d)), rng.random(n)
        centers, widths = rng.random((R, d)), rng.uniform(0.05, 0.6, (R, d))
        coeffs = rng.normal(0, 1, (R, d + 1))
        if underflow != "none":
            X[rng.random(n) < 0.3 if underflow == "some" else slice(None)] += 40.0
        if exact:
            t, coeffs = np.zeros(n), np.zeros((R, d + 1))
        if zero_centres:
            centers[rng.random((R, d)) < 0.5] = 0.0
        members.append((FuzzyRuleBase(centers, widths, coeffs), Dataset(X, t)))
    return members


class TestTrainHybridStack:
    PARAMS = NfisTrainParams(epochs=3)

    @settings(max_examples=150, deadline=None)
    @given(hybrid_stacks())
    def test_each_member_equals_its_own_fit(self, members):
        fises, granule_sets = zip(*members)
        before = [fis.to_dict() for fis in fises]
        got = train_hybrid_stack(fises, granule_sets, self.PARAMS)
        assert [fis.to_dict() for fis in fises] == before
        for out, fis, granules in zip(got, fises, granule_sets):
            centers, widths, coeffs = written_out_fit(fis, granules, self.PARAMS)
            assert out.centers.tobytes() == centers.tobytes()
            assert out.widths.tobytes() == widths.tobytes()
            assert out.coeffs.tobytes() == coeffs.tobytes()
            assert out.centers.base is None and out.widths.base is None and out.coeffs.base is None

    @settings(max_examples=150, deadline=None)
    @given(hybrid_stacks())
    def test_gradients_equal_each_members_masked_formula(self, members):
        # Signed zeros included: `.sum(axis=0)` of the -0.0 terms of an
        # exact fit is +0.0, while a reduction that starts from its first
        # row, as np.add.reduceat does, keeps -0.0.
        fises, granule_sets = zip(*members)
        rows, stack = _rows(granule_sets), _stacked(fises)
        centers, widths = stack.centers[rows.owner], stack.widths[rows.owner]
        gc, gs = _premise_gradients(rows, _firing(centers, widths, rows.X), centers, widths, stack.coeffs)
        for i, (fis, granules) in enumerate(members):
            want_c, want_s = masked_premise_gradients(fis, granules.X, granules.y, firing(fis, granules.X))
            assert gc[i].tobytes() == want_c.tobytes() and gs[i].tobytes() == want_s.tobytes()

    def test_no_member(self):
        assert train_hybrid_stack([], [], self.PARAMS) == []

    def test_an_empty_member_is_rejected(self):
        fis = FuzzyRuleBase(np.array([[0.0]]), np.array([[1.0]]), np.array([[0.0, 0.0]]))
        granules = Dataset([[0.5]], [1.0])
        with pytest.raises(ValueError, match="empty granule set"):
            train_hybrid_stack([fis, fis], [granules, Dataset(np.empty((0, 1)), [])], self.PARAMS)


class TestPremiseGradients:
    def numerical(self, fis, X, t, eps=1e-6):
        def loss(f):
            return np.mean((predict(f, X) - t) ** 2)

        gc = np.zeros_like(fis.centers)
        gs = np.zeros_like(fis.widths)
        for arr, grad in ((fis.centers, gc), (fis.widths, gs)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                hi = loss(fis)
                arr[idx] = orig - eps
                lo = loss(fis)
                arr[idx] = orig
                grad[idx] = (hi - lo) / (2 * eps)
        return gc, gs

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            R = rng.integers(1, 4)
            d = rng.integers(1, 4)
            X = rng.random((10, d))
            t = rng.random(10)
            fis = FuzzyRuleBase(
                rng.random((R, d)),
                rng.uniform(0.3, 1.0, (R, d)),
                rng.normal(0, 1, (R, d + 1)),
            )
            gc, gs = gradients_one(fis, X, t, firing(fis, X))
            nc, ns = self.numerical(fis, X, t)
            scale = max(np.abs(nc).max(), np.abs(ns).max(), 1e-8)
            assert np.abs(gc - nc).max() / scale < 1e-5
            assert np.abs(gs - ns).max() / scale < 1e-5

    def test_underflowed_rows_contribute_nothing(self):
        """Rows far outside both narrow rules have zero total firing. With
        some of them, the gradients are the masked formula's, bytes and
        all; with only them, both gradients are zero."""
        rng = np.random.default_rng(12)
        fis = FuzzyRuleBase(rng.random((2, 2)), np.full((2, 2), 0.05), rng.normal(0, 1, (2, 3)))
        X = np.vstack([fis.centers + 0.01, [[50.0, 50.0], [-40.0, 7.0]]])
        t = rng.random(4)
        w = firing(fis, X)
        assert (w.sum(axis=1) > 0).tolist() == [True, True, False, False]
        gc, gs = gradients_one(fis, X, t, w)
        want_c, want_s = masked_premise_gradients(fis, X, t, w)
        assert gc.tobytes() == want_c.tobytes() and gs.tobytes() == want_s.tobytes()
        assert np.abs(gc).max() > 0
        gc, gs = gradients_one(fis, X[2:], t[2:], w[2:])
        assert gc.shape == fis.centers.shape and gs.shape == fis.widths.shape
        assert not gc.any() and not gs.any()


class TestNoUnderflowPath:
    """When every row fires, the fits skip the underflow masks; they must
    give the bytes of the masked formula, written out here."""

    def cases(self):
        rng = np.random.default_rng(11)
        for n, R, d in ((1, 1, 1), (4, 2, 3), (7, 3, 2), (60, 2, 3), (250, 4, 3)):
            fis = FuzzyRuleBase(rng.random((R, d)), rng.uniform(0.2, 1.0, (R, d)), rng.normal(0, 1, (R, d + 1)))
            X, t = rng.random((n, d)), rng.random(n)
            w = firing(fis, X)
            assert (w.sum(axis=1) > 0).all()
            yield fis, X, t, w

    def test_consequents_match_masked_formula(self):
        for fis, X, t, w in self.cases():
            (n, d), R = X.shape, fis.n_rules
            sw = w.sum(axis=1)
            ok = sw > 0
            wn = np.zeros_like(w)
            wn[ok] = w[ok] / sw[ok, None]
            X1 = np.column_stack([X, np.ones(n)])
            design = (wn[:, :, None] * X1[:, None, :]).reshape(n, R * (d + 1))
            expected = np.linalg.lstsq(design, t, rcond=None)[0].reshape(R, d + 1)
            assert solve_one(fis, X, t, w).tobytes() == expected.tobytes()

    def test_premise_gradients_match_masked_formula(self):
        for fis, X, t, w in self.cases():
            gc, gs = masked_premise_gradients(fis, X, t, w)
            got_c, got_s = gradients_one(fis, X, t, w)
            assert got_c.tobytes() == gc.tobytes()
            assert got_s.tobytes() == gs.tobytes()


class TestRmse:
    def test_zero_on_perfect_predictions(self):
        fis = FuzzyRuleBase(np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0, 0.0]]))
        ds = Dataset(np.array([[0.2], [0.8]]), np.array([0.2, 0.8]))
        assert rmse(fis, ds) == 0.0

    def test_residual_arithmetic(self):
        # output 0 against (3, 4): residuals (3, 4) over m=2, sqrt(25/2);
        # clipped up to [1, 2], residuals (2, 3), sqrt(13/2)
        fis = FuzzyRuleBase(np.array([[0.0]]), np.array([[1.0]]), np.array([[0.0, 0.0]]))
        ds = Dataset(np.array([[0.1], [0.2]]), np.array([3.0, 4.0]))
        assert rmse(fis, ds) == pytest.approx(np.sqrt(25 / 2))
        assert rmse(fis, ds, 1.0, 2.0) == pytest.approx(np.sqrt(13 / 2))

    def test_empty_test_set(self):
        fis = FuzzyRuleBase(np.array([[0.0]]), np.array([[1.0]]), np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError, match="empty"):
            rmse(fis, Dataset(np.empty((0, 1)), np.empty(0)))


def test_rulebase_json_round_trip():
    fis = FuzzyRuleBase(np.array([[0.1, 0.2]]), np.array([[0.5, 0.6]]), np.array([[1.0, 2.0, 3.0]]))
    doc = fis.to_dict()
    assert doc["n_rules"] == 1
    assert doc["rules"][0]["consequent"] == [1.0, 2.0, 3.0]
