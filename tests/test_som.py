import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonfis.dataset import Dataset, gen_synthetic, min_max_normalize
from sonfis.som import SomGrid, SomParams, extract_granules, grid_dims, quantization_error, train_som


def brute_force_dims(N):
    best = None
    for n1 in range(1, N + 1):
        if N % n1 == 0:
            n2 = N // n1
            if n1 <= n2 and (best is None or abs(n1 - n2) < abs(best[0] - best[1])):
                best = (n1, n2)
    return best


class TestGridDims:
    def test_perfect_square(self):
        assert grid_dims(9) == (3, 3)

    def test_twelve(self):
        assert grid_dims(12) == brute_force_dims(12) == (3, 4)

    def test_prime(self):
        assert grid_dims(13) == (1, 13)

    def test_exhaustive_to_1000(self):
        for N in range(1, 1001):
            assert grid_dims(N) == brute_force_dims(N)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="N must be >= 1"):
            grid_dims(0)


def small_dataset(n=50, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, 2)), rng.random(n))


class TestTrainSom:
    def test_single_neuron_is_centroid(self):
        ds = small_dataset()
        grid = train_som(ds, (1, 1), SomParams(epochs=5), seed=1)
        assert np.allclose(grid.prototypes[0], ds.X.mean(axis=0), atol=1e-12)

    def test_repeated_point_collapses_all_prototypes(self):
        X = np.tile([0.3, 0.7], (20, 1))
        ds = Dataset(X, np.zeros(20))
        grid = train_som(ds, (2, 2), SomParams(epochs=10), seed=2)
        assert np.allclose(grid.prototypes, [0.3, 0.7])

    def test_determinism(self):
        ds = small_dataset()
        p = SomParams(epochs=8)
        g1 = train_som(ds, (3, 4), p, seed=42)
        g2 = train_som(ds, (3, 4), p, seed=42)
        assert np.array_equal(g1.prototypes, g2.prototypes)
        gs1, gs2 = extract_granules(g1, ds), extract_granules(g2, ds)
        assert np.array_equal(gs1.inputs, gs2.inputs)
        assert np.array_equal(gs1.decisions, gs2.decisions)
        assert np.array_equal(gs1.support, gs2.support)

    def test_record_order_invariance(self):
        ds = small_dataset()
        perm = np.random.default_rng(5).permutation(len(ds))
        shuffled = Dataset(ds.X[perm], ds.y[perm])
        p = SomParams(epochs=6)
        g1 = train_som(ds, (2, 3), p, seed=3)
        g2 = train_som(shuffled, (2, 3), p, seed=3)
        assert np.allclose(g1.prototypes, g2.prototypes)

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError):
            train_som(ds, (1, 1), SomParams(), seed=0)


class TestTrainSomCaches:
    def dataset(self):
        rng = np.random.default_rng(21)
        X = rng.random((30, 3)).round(1)
        X = np.vstack([X, X[:15]])  # 45 records, at most 30 distinct
        return Dataset(X, rng.random(len(X)))

    def test_cold_and_warm_caches_give_the_same_bytes(self):
        ds = self.dataset()
        p = SomParams(epochs=6)
        cold = train_som(ds, (3, 4), p, seed=5).prototypes
        assert len(ds.distinct_X) < len(ds)
        assert np.array_equal(ds.distinct_X, np.unique(ds.X, axis=0))
        # Other shapes in between reuse the dataset's one sort.
        train_som(ds, (1, 7), p, seed=5)
        train_som(ds, (2, 5), p, seed=5)
        later = train_som(ds, (3, 4), p, seed=5).prototypes
        warm = train_som(ds, (3, 4), p, seed=5).prototypes
        fresh = train_som(self.dataset(), (3, 4), p, seed=5).prototypes
        assert cold.tobytes() == later.tobytes() == warm.tobytes() == fresh.tobytes()

    def test_records_and_distinct_rows_are_read_only(self):
        X = self.dataset().X.copy()
        ds = Dataset(X, np.zeros(len(X)))
        with pytest.raises(ValueError):
            ds.distinct_X[0, 0] = 2.0
        with pytest.raises(ValueError):
            ds.X[0, 0] = 2.0
        # The Dataset holds its own copy: the caller's array stays writeable
        # and a write to it does not reach the Dataset or its cached rows.
        before = ds.distinct_X.copy()
        X[:] = 0.0
        assert not (ds.X == 0.0).all()
        assert np.array_equal(ds.distinct_X, before)


class TestQuantizationError:
    def test_empty_dataset_rejected(self):
        grid = SomGrid(1, 1, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="empty dataset"):
            quantization_error(grid, Dataset(np.empty((0, 2)), np.empty(0)))

    def test_zero_when_prototypes_cover_data(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        grid = SomGrid(1, 2, X.copy())
        assert quantization_error(grid, Dataset(X, np.zeros(2))) == 0.0

    def test_scalar_mean_prototype(self):
        X = np.array([[0.0], [1.0]])
        grid = SomGrid(1, 1, np.array([[0.5]]))
        assert quantization_error(grid, Dataset(X, np.zeros(2))) == pytest.approx(0.5)

    def test_training_reduces_qe(self):
        ds = min_max_normalize(gen_synthetic(200, 0.1, 8))
        dims = (3, 3)
        rng = np.random.default_rng(9)
        init = SomGrid(*dims, ds.X[rng.integers(0, len(ds), 9)].copy())
        trained = train_som(ds, dims, SomParams(epochs=15), seed=9)
        assert quantization_error(trained, ds) <= quantization_error(init, ds)


class TestExtractGranules:
    def test_single_neuron_mean_decision(self):
        ds = Dataset(np.array([[0.1], [0.9]]), np.array([2.0, 4.0]))
        grid = train_som(ds, (1, 1), SomParams(epochs=3), seed=0)
        gs = extract_granules(grid, ds)
        assert len(gs) == 1
        assert gs.decisions[0] == pytest.approx(3.0)

    def test_dead_neurons_dropped(self):
        # 2 tight clusters, 9 neurons: several neurons must starve.
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(0.1, 0.01, (20, 2)), rng.normal(0.9, 0.01, (20, 2))])
        ds = Dataset(np.clip(X, 0, 1), np.r_[np.zeros(20), np.ones(20)])
        grid = train_som(ds, (3, 3), SomParams(epochs=20, final_radius=0.5), seed=4)
        gs = extract_granules(grid, ds)
        assert 1 <= len(gs) <= 9
        assert (gs.support >= 1).all()

    def test_support_partitions_training_set(self):
        ds = small_dataset(80, 7)
        grid = train_som(ds, (3, 3), SomParams(epochs=10), seed=7)
        gs = extract_granules(grid, ds)
        assert gs.support.sum() == len(ds)

    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_support_partition_property(self, seed):
        ds = small_dataset(40, seed)
        grid = train_som(ds, (2, 2), SomParams(epochs=5), seed=seed)
        gs = extract_granules(grid, ds)
        assert (gs.support >= 1).all()
        assert gs.support.sum() == len(ds)
