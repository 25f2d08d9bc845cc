"""The SOM kernels against a literal reference loop."""

import numpy as np
import pytest

from sonfis import kernels

# One parameter, so every test id carries the backend name that the
# benchmark reports with its results.
KERNELS = pytest.mark.parametrize("impl", [kernels], ids=[kernels.BACKEND])


def ref_assign(data, protos):
    """Distances summed attribute by attribute from 0.0, with `diff * diff`
    (Python's `** 2` goes through libm pow and can round differently),
    first strict minimum wins."""
    out = []
    for x in data:
        best, bestd = 0, float("inf")
        for k, p in enumerate(protos):
            d = 0.0
            for j in range(len(x)):
                diff = float(x[j]) - float(p[j])
                d += diff * diff
            if d < bestd:
                best, bestd = k, d
        out.append(best)
    return np.array(out, dtype=np.int64)


def ref_accumulate(data, bmus, m):
    """Per-neuron sums and counts, adding the records in order."""
    sums = [[0.0] * data.shape[1] for _ in range(m)]
    counts = [0.0] * m
    for x, k in zip(data, bmus):
        counts[k] += 1.0
        for j in range(len(x)):
            sums[k][j] += float(x[j])
    return np.array(sums), np.array(counts)


@KERNELS
def test_assign_matches_reference(impl):
    rng = np.random.default_rng(0)
    data = rng.random((200, 3))
    protos = rng.random((17, 3))
    assert np.array_equal(impl.assign_bmus(data, protos), ref_assign(data, protos))


@KERNELS
def test_tie_breaks_to_lowest_index(impl):
    data = np.array([[0.5, 0.5]])
    protos = np.array([[0.4, 0.5], [0.6, 0.5], [0.4, 0.5]])
    assert impl.assign_bmus(data, protos)[0] == 0


@pytest.mark.parametrize("d", [8, 12])
@KERNELS
def test_permuted_ties_follow_sequential_order(impl, d):
    """Two prototypes whose offsets from the row are one vector and a
    permutation of it: their distances agree up to rounding, so only the
    summation order decides the winner. Pairwise summation (NumPy's `.sum`
    for d >= 8) picks the other prototype on about 10% of these rows."""
    rng = np.random.default_rng(0)
    for _ in range(2000):
        x = rng.random(d)
        delta = rng.random(d) * 0.1
        protos = np.stack([x + delta, x + delta[rng.permutation(d)]])
        assert impl.assign_bmus(x[None], protos)[0] == ref_assign(x[None], protos)[0]


@KERNELS
def test_accumulate(impl):
    """Exact against a record-order loop. Magnitudes span 16 decades, so
    the order matters: summing the records in reverse changes 5 of the 8
    sums. Neuron 3 gets no records, so its sums and count must be zero."""
    rng = np.random.default_rng(1)
    data = rng.random((50, 2)) * 10.0 ** rng.integers(-8, 8, (50, 2))
    bmus = rng.choice([0, 1, 2, 4], 50).astype(np.int64)
    sums, counts = impl.accumulate_by_bmu(data, bmus, 5)
    ref_sums, ref_counts = ref_accumulate(data, bmus, 5)
    assert np.array_equal(sums, ref_sums)
    assert np.array_equal(counts, ref_counts)
    assert not sums[3].any() and counts[3] == 0


@pytest.mark.parametrize("n, m, d", [(7, 3, 1), (3, 5, 1), (4, 9, 3)])
@KERNELS
def test_shapes_and_dtypes(impl, n, m, d):
    """d = 1 is the shape `rst.fit_scaling` trains; n < m leaves neurons
    without records."""
    rng = np.random.default_rng(3)
    data = rng.random((n, d))
    protos = rng.random((m, d))
    bmus = impl.assign_bmus(data, protos)
    assert bmus.dtype == np.int64 and bmus.shape == (n,)
    assert np.array_equal(bmus, ref_assign(data, protos))
    sums, counts = impl.accumulate_by_bmu(data, bmus, m)
    assert sums.dtype == np.float64 and sums.shape == (m, d)
    assert counts.dtype == np.float64 and counts.shape == (m,)
    assert counts.sum() == n
