import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonfis import kernels
from sonfis.dataset import Dataset, gen_synthetic, min_max_normalize
from sonfis.rst import SCALING_SOM
from sonfis.som import (SomGrid, SomParams, _neighbourhoods, extract_granules, grid_dims, quantization_error,
                        train_som)


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


def grid_chebyshev(n1, n2):
    """Pairwise Chebyshev distance between grid positions, (N, N) float64."""
    rows, cols = np.divmod(np.arange(n1 * n2), n2)
    dr = np.abs(rows[:, None] - rows[None, :])
    dc = np.abs(cols[:, None] - cols[None, :])
    return np.maximum(dr, dc).astype(np.float64)


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
        assert np.array_equal(gs1.X, gs2.X)
        assert np.array_equal(gs1.y, gs2.y)

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

    # Radii whose Gaussian vanishes off the diagonal, on a 10 x 10 grid
    # (initial radius 5): an epoch with H = I moves each neuron with records
    # to their mean, as the limit of a shrinking radius does.
    @pytest.mark.parametrize("radii, identity_epochs", [
        ((None, 1e-17), [2]),  # 5 + (1e-17 - 5) == 0.0 at the last epoch
        ((1e-200, 1e-200), [0, 1, 2]),  # 2 * radius**2 underflows to 0
        ((1e-155, 1e-155), [0, 1, 2]),  # 1 / (2 * radius**2) overflows
    ], ids=["radius-rounds-to-zero", "square-underflows", "quotient-overflows"])
    def test_vanishing_radius_epoch_is_identity(self, radii, identity_epochs):
        params = SomParams(epochs=3, initial_radius=radii[0], final_radius=radii[1])
        r0 = 5.0 if radii[0] is None else radii[0]
        cheb = grid_chebyshev(10, 10)
        for epoch, H in enumerate(_neighbourhoods(10, 10, params)):
            assert np.array_equal(H, np.eye(100)) == (epoch in identity_epochs)
            # Every epoch holds the Gaussian's bytes, 0 / 0 on the diagonal read as its limit 1.
            radius = r0 + (radii[1] - r0) * (epoch / 2)
            with np.errstate(all="ignore"):
                gaussian = np.exp(-(cheb**2) / (2.0 * radius**2))
            assert H.tobytes() == np.where(np.isnan(gaussian), 1.0, gaussian).tobytes()
        ds = small_dataset(200, 3)
        after = train_som(ds, (10, 10), params, seed=1).prototypes  # a RuntimeWarning would raise here
        if radii[0] == radii[1]:  # every epoch is H = I, so the third is one more Lloyd step
            before = train_som(ds, (10, 10), replace(params, epochs=2), seed=1).prototypes
            sums, counts = kernels.accumulate_by_bmu(ds.X, kernels.assign_bmus(ds.X, before), 100)
            live = counts > 0
            assert not np.array_equal(after[live], before[live])
            assert np.array_equal(after[live], sums[live] / counts[live, None])
            assert np.array_equal(after[~live], before[~live])


class TestNeighbourhoods:
    """Each epoch's H is the Gaussian of the Chebyshev grid distance, byte
    for byte, although it is built as the smaller of two per-axis weights
    from one table of distances."""

    @pytest.mark.parametrize("dims", [(1, 1), (1, 5), (2, 3), (5, 13), (7, 8), (10, 10), (20, 20)])
    @pytest.mark.parametrize("params", [
        SomParams(), SCALING_SOM, SomParams(epochs=1), SomParams(epochs=4, initial_radius=1e8),
        SomParams(epochs=3, initial_radius=1e30), SomParams(epochs=3, initial_radius=1e300),
    ], ids=["default", "scaling", "one-epoch", "radius-1e8", "radius-1e30", "radius-1e300"])
    def test_each_epoch_is_the_chebyshev_gaussian(self, dims, params):
        n1, n2 = dims
        cheb = grid_chebyshev(n1, n2)
        r0 = params.initial_radius if params.initial_radius is not None else max(n1, n2) / 2.0
        epochs = [H.copy() for H in _neighbourhoods(n1, n2, params)]  # each copied before the next is drawn
        assert len(epochs) == params.epochs
        for epoch, H in enumerate(epochs):
            frac = epoch / (params.epochs - 1) if params.epochs > 1 else 0.0
            radius = r0 + (params.final_radius - r0) * frac
            # A radius whose square overflows is infinitely wide; one that
            # rounds to 0 gives 0 / 0 on the diagonal, read as its limit 1.
            denom = 2 * radius**2 if radius < 1e154 else np.inf
            with np.errstate(all="ignore"):
                gaussian = np.exp(-(cheb**2) / denom)
            want = np.where(np.isnan(gaussian), 1.0, gaussian)
            assert H.shape == want.shape and H.tobytes() == want.tobytes()

    def test_gaussian_table_is_non_increasing(self):
        """The identity min(g[a], g[b]) == g[max(a, b)] needs only this:
        exp(-k**2 / denom) never rises with k, at any denominator."""
        k = np.arange(64, dtype=np.float64)
        for denom in np.logspace(-300, 300, 20001):
            g = np.exp(-(k**2) / denom)
            assert np.all(g[1:] <= g[:-1]), denom

    def test_largest_grid_uses_one_buffer(self):
        """At MAX_NEURONS every epoch reuses one 128 MiB (N, N) buffer."""
        tracemalloc.start()
        try:
            for H in _neighbourhoods(64, 64, SomParams(epochs=2)):
                assert H.shape == (4096, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * 2**20


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
        # The copy is C-ordered whatever the input's order, as the kernels read it.
        assert Dataset(np.asfortranarray(X), np.zeros(len(X))).X.flags.c_contiguous


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


def assert_granules_partition(grid, ds, gs):
    """`gs` is one row per distinct BMU of the records, in neuron order:
    that neuron's prototype and the mean decision of its records. So dead
    neurons are dropped and every record falls in exactly one granule."""
    bmus = np.argmin(((ds.X[:, None, :] - grid.prototypes[None, :, :]) ** 2).sum(axis=2), axis=1)
    live = np.unique(bmus)
    assert isinstance(gs, Dataset)
    assert len(gs) == len(live)
    assert np.array_equal(gs.X, grid.prototypes[live])
    assert np.allclose(gs.y, [ds.y[bmus == j].mean() for j in live], rtol=0, atol=1e-12)
    assert gs.attribute_names == ds.attribute_names


class TestExtractGranules:
    def test_single_neuron_mean_decision(self):
        ds = Dataset(np.array([[0.1], [0.9]]), np.array([2.0, 4.0]))
        grid = train_som(ds, (1, 1), SomParams(epochs=3), seed=0)
        gs = extract_granules(grid, ds)
        assert len(gs) == 1
        assert gs.y[0] == pytest.approx(3.0)

    def test_dead_neurons_dropped(self):
        # 2 tight clusters, 9 neurons: several neurons must starve.
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(0.1, 0.01, (20, 2)), rng.normal(0.9, 0.01, (20, 2))])
        ds = Dataset(np.clip(X, 0, 1), np.r_[np.zeros(20), np.ones(20)])
        grid = train_som(ds, (3, 3), SomParams(epochs=20, final_radius=0.5), seed=4)
        gs = extract_granules(grid, ds)
        assert 1 <= len(gs) < 9
        assert_granules_partition(grid, ds, gs)

    def test_support_partitions_training_set(self):
        ds = small_dataset(80, 7)
        grid = train_som(ds, (3, 3), SomParams(epochs=10), seed=7)
        assert_granules_partition(grid, ds, extract_granules(grid, ds))

    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_support_partition_property(self, seed):
        ds = small_dataset(40, seed)
        grid = train_som(ds, (2, 2), SomParams(epochs=5), seed=seed)
        assert_granules_partition(grid, ds, extract_granules(grid, ds))
