import numpy as np
import pytest

from sonfis.dataset import Dataset
from sonfis.nfis import (
    FuzzyRuleBase,
    NfisTrainParams,
    _firing,
    _premise_gradients,
    _solve_consequents,
    init_rulebase,
    predict,
    rmse,
    train_hybrid,
)
from sonfis.som import GranuleSet


def make_granules(X, y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    return GranuleSet(X, y, np.ones(len(y), dtype=int))


class TestInitRulebase:
    def test_single_rule_at_centroid(self):
        gs = make_granules([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]], [1, 2, 3])
        fis = init_rulebase(gs, 1, seed=0)
        assert np.allclose(fis.centers[0], gs.inputs.mean(axis=0))

    def test_two_separated_clusters(self):
        gs = make_granules([[0.0], [0.01], [1.0], [0.99]], [0, 0, 1, 1])
        fis = init_rulebase(gs, 2, seed=1)
        centers = np.sort(fis.centers[:, 0])
        assert centers[0] == pytest.approx(0.005)
        assert centers[1] == pytest.approx(0.995)

    def test_width_floor(self):
        gs = make_granules([[0.5], [0.5], [0.5], [0.9]], [0, 0, 0, 1])
        fis = init_rulebase(gs, 2, seed=2)
        assert (fis.widths >= 0.1).all()

    def test_too_few_granules(self):
        gs = make_granules([[0.0]], [1])
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
        assert _firing(fis, X).sum(axis=1).tolist() == [0.0, 0.0]
        assert predict(fis, X).tolist() == [-5.0, 5.0]
        # One-hot weights: row 0 fits rule 0 alone and row 1 rule 1 alone,
        # each by the minimum-norm solution t * [x, 1] / |[x, 1]|**2.
        t = np.array([3.0, 2.0])
        expected = [t[0] * np.array([0.5, 0.5, 1.0]) / 1.5, t[1] * np.array([0.9, 0.8, 1.0]) / 2.45]
        assert np.allclose(_solve_consequents(fis, X, t, _firing(fis, X)), expected)

    def test_output_is_convex_combination_of_consequents(self):
        rng = np.random.default_rng(0)
        fis = FuzzyRuleBase(rng.random((3, 2)), rng.uniform(0.2, 1, (3, 2)), rng.normal(0, 1, (3, 3)))
        X = rng.random((200, 2))
        f = X @ fis.coeffs[:, :-1].T + fis.coeffs[:, -1]
        y = predict(fis, X)
        assert (y >= f.min(axis=1) - 1e-12).all()
        assert (y <= f.max(axis=1) + 1e-12).all()


class TestTrainHybrid:
    def test_exact_linear_recovery_single_rule(self):
        rng = np.random.default_rng(1)
        X = rng.random((20, 2))
        y = 2 * X[:, 0] + 3 * X[:, 1] + 1
        gs = make_granules(X, y)
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
        gs = make_granules(X, y)
        fis = train_hybrid(init_rulebase(gs, 1, seed=0), gs, NfisTrainParams(epochs=5))
        A = np.column_stack([X, np.ones(len(X))])
        beta, *_ = np.linalg.lstsq(A, y, rcond=None)
        assert np.abs(predict(fis, X) - A @ beta).max() < 1e-9

    def test_constant_decisions_are_reproduced(self):
        rng = np.random.default_rng(3)
        gs = make_granules(rng.random((10, 2)), np.full(10, 0.7))
        fis = train_hybrid(init_rulebase(gs, 2, seed=1), gs, NfisTrainParams(epochs=3))
        assert np.allclose(predict(fis, rng.random((5, 2))), 0.7, atol=1e-8)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        gs = make_granules(rng.random((15, 2)), rng.random(15))
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
        gs = make_granules(X, y)
        fis = init_rulebase(gs, 3, seed=2)
        fis.coeffs = rng.normal(0, 1, fis.coeffs.shape)
        before = np.sqrt(np.mean((predict(fis, X) - y) ** 2))
        from sonfis.nfis import _solve_consequents

        fis.coeffs = _solve_consequents(fis, X, y, _firing(fis, X))
        after = np.sqrt(np.mean((predict(fis, X) - y) ** 2))
        assert after <= before + 1e-12

    def test_underdetermined_uses_minimum_norm(self):
        # 2 granules, 2 rules, 2 inputs: 6 consequent parameters
        gs = make_granules([[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0])
        fis = train_hybrid(init_rulebase(gs, 2, seed=0), gs, NfisTrainParams(epochs=1))
        assert np.abs(predict(fis, gs.inputs) - gs.decisions).max() < 1e-9


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
            gc, gs = _premise_gradients(fis, X, t, _firing(fis, X))
            nc, ns = self.numerical(fis, X, t)
            scale = max(np.abs(nc).max(), np.abs(ns).max(), 1e-8)
            assert np.abs(gc - nc).max() / scale < 1e-5
            assert np.abs(gs - ns).max() / scale < 1e-5


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
    import json

    fis = FuzzyRuleBase(np.array([[0.1, 0.2]]), np.array([[0.5, 0.6]]), np.array([[1.0, 2.0, 3.0]]))
    doc = json.loads(fis.to_json())
    assert doc["n_rules"] == 1
    assert doc["rules"][0]["consequent"] == [1.0, 2.0, 3.0]
