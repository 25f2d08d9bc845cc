"""The SOM kernels against a literal reference loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sonfis import kernels

# One parameter, so every test id carries the backend name that the
# benchmark reports with its results.
KERNELS = pytest.mark.parametrize("impl", [kernels], ids=[kernels.BACKEND])
# Taken before any test replaces it with a spy.
EXACT = kernels.assign_exact


def assign_paths(impl):
    """`assign_bmus`, which sends inputs below PREFILTER_MIN_MD to the exact
    loop, and the prefilter it uses above it, called directly."""
    return impl.assign_bmus, impl._assign_prefiltered


@pytest.fixture
def exact_rows(monkeypatch):
    """The row count of every `assign_exact` call made during the test."""
    rows = []

    def spy(data, protos):
        rows.append(len(data))
        return EXACT(data, protos)

    monkeypatch.setattr(kernels, "assign_exact", spy)
    return rows


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
    for assign in assign_paths(impl):
        assert np.array_equal(assign(data, protos), ref_assign(data, protos))


@KERNELS
def test_tie_breaks_to_lowest_index(impl):
    data = np.array([[0.5, 0.5]])
    protos = np.array([[0.4, 0.5], [0.6, 0.5], [0.4, 0.5]])
    for assign in assign_paths(impl):
        assert assign(data, protos)[0] == 0


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
        want = ref_assign(x[None], protos)[0]
        for assign in assign_paths(impl):
            assert assign(x[None], protos)[0] == want


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


@pytest.mark.parametrize("n, m, d", [(7, 3, 1), (3, 5, 1), (4, 9, 3),
                                     (300, 150, 1), (400, 60, 3), (150, 40, 8), (120, 30, 12)])
@KERNELS
def test_shapes_and_dtypes(impl, n, m, d):
    """d = 1 is the shape `rst.fit_scaling` trains; n < m leaves neurons
    without records. From (300, 150, 1) on, m * d >= PREFILTER_MIN_MD, so
    `assign_bmus` itself takes the prefilter."""
    rng = np.random.default_rng(3)
    data = rng.random((n, d))
    protos = rng.random((m, d))
    for assign in assign_paths(impl):
        bmus = assign(data, protos)
        assert bmus.dtype == np.int64 and bmus.shape == (n,)
        assert np.array_equal(bmus, ref_assign(data, protos))
    sums, counts = impl.accumulate_by_bmu(data, bmus, m)
    assert sums.dtype == np.float64 and sums.shape == (m, d)
    assert counts.dtype == np.float64 and counts.shape == (m,)
    assert counts.sum() == n


# The prefilter: above PREFILTER_MIN_MD, `assign_bmus` ranks prototypes by one
# matrix product and recomputes only rows with a candidate within the
# rounding margin. Each case must still equal the sequential loop exactly.

@KERNELS
def test_duplicated_prototypes_recompute_every_row(impl, exact_rows):
    """Every prototype appears three times, so every row has an exact tie
    and goes to the sequential loop, which picks the first copy."""
    rng = np.random.default_rng(4)
    data = rng.random((200, 3))
    protos = np.repeat(rng.random((60, 3)), 3, axis=0)
    bmus = impl.assign_bmus(data, protos)
    assert exact_rows == [200]
    assert np.array_equal(bmus, EXACT(data, protos))
    assert not (bmus % 3).any()


@pytest.mark.parametrize("d", [8, 12])
@KERNELS
def test_permuted_ties_among_far_prototypes(impl, d):
    """The permuted-tie pair of `test_permuted_ties_follow_sequential_order`
    plus enough far prototypes to take the prefilter path: the pair's
    rounding-level gap must still be decided by the sequential sum."""
    rng = np.random.default_rng(1)
    far = impl.PREFILTER_MIN_MD // d
    for _ in range(500):
        x = rng.random(d)
        delta = rng.random(d) * 0.1
        pair = np.stack([x + delta, x + delta[rng.permutation(d)]])
        protos = np.concatenate([pair, x + 5.0 + rng.random((far, d))])
        assert impl.assign_bmus(x[None], protos)[0] == ref_assign(x[None], pair)[0]


@KERNELS
def test_near_ties_the_product_misranks(impl):
    """Prototype pairs 2**-50 to 2**-53 apart, relative: the matrix product
    alone picks the other one of a pair on thousands of rows; the prefilter
    never does. A margin of u * S instead of tau fails here."""
    misranked = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        for e in (50, 51, 52, 53):
            data = rng.random((2000, 3)) * 4.0 - 2.0
            base = rng.random((30, 3)) * 4.0 - 2.0
            protos = np.concatenate([base, base * (1.0 + rng.choice([-1.0, 1.0], base.shape) * 2.0**-e)])
            want = EXACT(data, protos)
            product = (data @ (-2.0 * protos.T) + np.einsum("ij,ij->i", protos, protos)).argmin(axis=1)
            misranked += np.count_nonzero(product != want)
            assert np.array_equal(impl._assign_prefiltered(data, protos), want)
    assert misranked > 1000


@KERNELS
def test_runner_up_at_the_margin_is_recomputed(impl, exact_rows):
    """A zero row scores each prototype by exactly its computed squared
    norm. The runner-up planted at exactly fl(best + tau) is a candidate,
    and one ulp beyond it is not."""
    x = np.zeros((1, 3))
    tau = impl._tie_margin(np.zeros(1), 9.0, 3)[0]
    bound = 0.25 + tau
    for score, recomputed in ((bound, [1]), (np.nextafter(bound, 1.0), [])):
        protos = np.array([[0.5, 0.0, 0.0], [0.5, np.sqrt(score - 0.25), 0.0], [-3.0, 0.0, 0.0]])
        assert np.einsum("ij,ij->i", protos, protos)[1] == score
        exact_rows.clear()
        assert impl._assign_prefiltered(x, protos)[0] == 0
        assert exact_rows == recomputed


@KERNELS
def test_runner_up_at_the_block_edges_or_tied(impl):
    """The runner-up is read at each row's argmin once the best score is
    masked. Prototypes 2**-51 to 2**-53 apart, relative, sit in the block's
    first and last columns, so the product misranks rows whose runner-up
    lies there; other rows have five runners-up at exactly one distance."""
    edge_misranks = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for e in (51, 52, 53):
            base = rng.random((40, 3)) * 4.0 - 2.0
            sign = rng.choice([-1.0, 1.0], (2, 3))
            protos = np.concatenate([base[:1] * (1.0 + sign[0] * 2.0**-e), base,
                                     base[-1:] * (1.0 + sign[1] * 2.0**-e)])
            m = len(protos)
            centre = np.array([3.0, 3.0, 3.0])  # best at distance 0.25, five runners-up at 0.5
            protos[10] = centre + [0.0, 0.0, -0.25]
            protos[11:16] = centre + [[0.0, 0.0, 0.5], [0.0, 0.5, 0.0], [0.5, 0.0, 0.0],
                                      [0.0, -0.5, 0.0], [-0.5, 0.0, 0.0]]
            data = np.concatenate([rng.random((2000, 3)) * 4.0 - 2.0, np.tile(centre, (5, 1))])
            assert protos.size >= impl.PREFILTER_MIN_MD
            want = EXACT(data, protos)
            product = data @ (-2.0 * protos.T) + np.einsum("ij,ij->i", protos, protos)
            best = product.argmin(axis=1)
            product[np.arange(len(data)), best] = np.inf
            runner_up = product.argmin(axis=1)
            edge_misranks += np.count_nonzero((best != want) & ((runner_up == 0) | (runner_up == m - 1)))
            assert (want[-5:] == 10).all() and (product[-5:, 11:16] == product[-5:, 11:12]).all()
            for assign in assign_paths(impl):
                assert np.array_equal(assign(data, protos), want)
    assert edge_misranks > 100


@pytest.mark.parametrize("scale, whole", [(1e150, False), (1e-130, False), (1e160, True), (1e200, True),
                                          (1e-140, True), (1e-300, True), (5e-324, True)])
@KERNELS
def test_extreme_magnitudes(impl, exact_rows, scale, whole):
    """Inside [TINY, HUGE] the bound holds and few rows are recomputed;
    outside it the whole input goes to the sequential loop, even where its
    squares overflow to inf or underflow to 0."""
    rng = np.random.default_rng(6)
    data = rng.random((50, 3)) * scale
    protos = rng.random((60, 3)) * scale
    with np.errstate(over="ignore", under="ignore"):
        want = EXACT(data, protos)
        got = impl.assign_bmus(data, protos)
    assert np.array_equal(got, want)
    assert (exact_rows == [50]) if whole else sum(exact_rows) < 50


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["data", "protos"])
@KERNELS
def test_non_finite_input(impl, exact_rows, bad, where):
    """NaN and inf go to the sequential loop whole, which keeps its argmin
    of NaN distances (the first NaN)."""
    rng = np.random.default_rng(7)
    arrs = {"data": rng.random((40, 3)), "protos": rng.random((60, 3))}
    arrs[where][5, 1] = bad
    with np.errstate(invalid="ignore"):
        want = EXACT(arrs["data"], arrs["protos"])
        got = impl.assign_bmus(arrs["data"], arrs["protos"])
    assert np.array_equal(got, want)
    assert exact_rows == [40]


@KERNELS
def test_prefilter_empty_data_and_one_prototype(impl):
    rng = np.random.default_rng(8)
    protos = rng.random((60, 3))
    for assign in assign_paths(impl):
        bmus = assign(np.empty((0, 3)), protos)
        assert bmus.dtype == np.int64 and bmus.shape == (0,)
    data = rng.random((30, 3))
    assert np.array_equal(impl._assign_prefiltered(data, protos[:1]), np.zeros(30, dtype=np.int64))


@st.composite
def assign_inputs(draw):
    """Data and prototypes of one width, from a few shared values (exact
    ties and duplicates), moderate floats, or any float at all."""
    d = draw(st.integers(1, 6))
    elements = st.one_of(st.sampled_from([0.0, 0.5, -1.0, 1.0, 3.0]), st.floats(-1e3, 1e3), st.floats())
    data = draw(arrays(np.float64, (draw(st.integers(0, 12)), d), elements=elements))
    protos = draw(arrays(np.float64, (draw(st.integers(1, 12)), d), elements=elements))
    return data, protos


@settings(max_examples=300, deadline=None)
@given(assign_inputs())
def test_prefilter_property(inputs):
    data, protos = inputs
    with np.errstate(all="ignore"):
        assert np.array_equal(kernels._assign_prefiltered(data, protos), EXACT(data, protos))


def test_dispatch_by_prototype_size(monkeypatch, exact_rows):
    """The sonfis-large shape (4500 records, a 20 x 20 grid, 3 attributes)
    takes the prefilter and recomputes no row; a 2 x 2 SOM on 600 records
    takes the sequential loop."""
    calls = []
    prefiltered = kernels._assign_prefiltered
    monkeypatch.setattr(kernels, "_assign_prefiltered", lambda *a: calls.append(a) or prefiltered(*a))
    rng = np.random.default_rng(9)
    data, protos = rng.random((4500, 3)), rng.random((400, 3))
    assert np.array_equal(kernels.assign_bmus(data, protos), EXACT(data, protos))
    assert len(calls) == 1 and exact_rows == []
    kernels.assign_bmus(data[:600], protos[:4])
    assert len(calls) == 1 and exact_rows == [600]


@st.composite
def stacked_assign_inputs(draw):
    """A stack of searches of one shape, from a few shared values (exact
    ties and duplicates) or moderate floats."""
    stack = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    n, m, d = draw(st.integers(0, 8)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    elements = st.one_of(st.sampled_from([0.0, 0.5, -1.0, 1.0, 3.0]), st.floats(-1e3, 1e3))
    data = draw(arrays(np.float64, (*stack, n, d), elements=elements))
    protos = draw(arrays(np.float64, (*stack, m, d), elements=elements))
    return data, protos


@settings(max_examples=200, deadline=None)
@given(stacked_assign_inputs())
def test_stacked_exact_search_equals_each_member(inputs):
    data, protos = inputs
    got = EXACT(data, protos)
    assert got.dtype == np.int64 and got.shape == data.shape[:-1]
    for idx in np.ndindex(data.shape[:-2]):
        assert got[idx].tobytes() == EXACT(data[idx], protos[idx]).tobytes()


def som_update_inputs(rng, stack, m, d):
    """Prototypes, sums and counts with empty neurons, and a sparse
    neighbourhood whose first row is zero, so neuron 0 has no weight."""
    H = rng.random((m, m)) * (rng.random((m, m)) < 0.5)
    H[0] = 0.0
    counts = rng.integers(0, 4, (*stack, m)).astype(np.float64)
    sums = rng.random((*stack, m, d)) * counts[..., None]
    return rng.random((*stack, m, d)), H, sums, counts


@pytest.mark.parametrize("m, d", [(1, 1), (4, 3), (12, 1), (30, 2), (100, 3)])
def test_move_prototypes_matches_batch_formula(m, d):
    """The update as `train_som` wrote it out: live neurons move to
    (H @ sums) / (H @ counts), bytes and all; the others keep theirs."""
    rng = np.random.default_rng(10)
    protos, H, sums, counts = som_update_inputs(rng, (), m, d)
    want = protos.copy()
    numer, denom = H @ sums, H @ counts
    live = denom > 0
    want[live] = numer[live] / denom[live, None]
    kernels.move_prototypes(protos, H, sums, counts)
    assert protos.tobytes() == want.tobytes()


@pytest.mark.parametrize("stack, m, d", [((5,), 3, 1), ((4,), 12, 1), ((2, 3), 7, 2), ((3,), 60, 1)])
def test_stacked_move_prototypes_equals_each_member(stack, m, d):
    rng = np.random.default_rng(11)
    protos, H, sums, counts = som_update_inputs(rng, stack, m, d)
    before = protos.copy()
    kernels.move_prototypes(protos, H, sums, counts)
    for idx in np.ndindex(stack):
        member = before[idx].copy()
        kernels.move_prototypes(member, H, sums[idx], counts[idx])
        assert protos[idx].tobytes() == member.tobytes()
    # Neuron 0 has no neighbourhood weight in any member: it stays put.
    assert protos[..., 0, :].tobytes() == before[..., 0, :].tobytes()


class TestExactBlocks:
    def test_blocks_give_the_one_pass_bmus(self, monkeypatch):
        # Ties on a coarse grid; blocks of 3 rows leave a short last block,
        # for one search and for a stack of four.
        rng = np.random.default_rng(4)
        data = rng.integers(0, 3, (4, 50, 2)).astype(np.float64)
        protos = rng.integers(0, 3, (4, 7, 2)).astype(np.float64)
        whole = kernels._exact_pass(data, protos)
        monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 3 * 7)
        assert np.array_equal(kernels.assign_exact(data, protos), whole)
        assert np.array_equal(kernels.assign_exact(data[0], protos[0]), whole[0])
        for member in range(4):
            assert np.array_equal(whole[member], ref_assign(data[member], protos[member]))

    def test_exact_search_memory_is_bounded(self):
        # One pass holds two (n, m) float64 matrices, about 54 MiB here.
        rng = np.random.default_rng(5)
        data, protos = rng.random((10**5, 3)), rng.random((35, 3))
        tracemalloc.start()
        try:
            bmus = kernels.assign_exact(data, protos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert np.array_equal(bmus[:1000], kernels._exact_pass(data[:1000], protos))

    def test_stacked_search_memory_is_bounded(self):
        # One pass holds a (3, n, 8) float64 matrix and its argmin's
        # temporaries, about 20 MiB here.
        rng = np.random.default_rng(6)
        data, protos = rng.random((3, 10**5, 1)), rng.random((3, 8, 1))
        tracemalloc.start()
        try:
            bmus = kernels.assign_exact(data, protos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert np.array_equal(bmus[:, :1000], kernels._exact_pass(data[:, :1000], protos))
