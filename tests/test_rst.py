import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonfis import kernels
from sonfis.dataset import Dataset
from sonfis.rst import (
    SCALING_SOM,
    DecisionTable,
    RuleSet,
    ScalingError,
    ScalingMap,
    _classes,
    apply_scaling,
    approximations,
    classify,
    classify_rows,
    dependency_degree,
    fit_scaling,
    fit_scaling_stack,
    indiscernibility_partition,
    induce_rules,
    mse,
)
from sonfis.som import train_som


@pytest.fixture
def t0():
    """o1:(a=0,d=0) o2:(a=0,d=0) o3:(a=1,d=0) o4:(a=1,d=1)"""
    return DecisionTable(np.array([[0], [0], [1], [1]]), np.array([0, 0, 0, 1]))


@pytest.fixture
def t0_scaling():
    return ScalingMap([np.array([0.0, 1.0])], np.array([0.0, 1.0]))


# strategy: random small decision tables
tables = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
    )
)


# strategy: random decision tables with 1-3 condition attributes and 1-8 rows
rule_tables = st.tuples(st.integers(1, 3), st.integers(1, 8)).flatmap(
    lambda an: st.tuples(
        st.lists(st.lists(st.integers(0, 2), min_size=an[0], max_size=an[0]), min_size=an[1], max_size=an[1]),
        st.lists(st.integers(0, 3), min_size=an[1], max_size=an[1]),
    )
)


def build(conds, decs):
    return DecisionTable(np.array(conds, dtype=int), np.array(decs, dtype=int))


def rule_rows(rules):
    """Each rule as (descriptors, decision, support, certain), in rule order."""
    return list(zip(map(tuple, rules.descriptors.tolist()), rules.decisions.tolist(),
                    rules.support.tolist(), rules.certain.tolist()))


class TestFitScaling:
    def test_three_even_values(self):
        vals = np.array([0.0, 0.5, 1.0] * 10)
        ds = Dataset(vals[:, None], vals)
        sm = fit_scaling(ds, 3, seed=0)
        cb = sm.input_codebooks[0]
        assert np.abs(cb - [0.0, 0.5, 1.0]).max() < 0.05
        assert (np.diff(cb) > 0).all()

    def test_two_cluster_fixed_point(self):
        vals = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        ds = Dataset(vals[:, None], vals)
        sm = fit_scaling(ds, 2, seed=1)
        assert np.abs(sm.input_codebooks[0] - [0.0, 1.0]).max() < 0.05

    def test_determinism(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.random((60, 2)), rng.random(60))
        a = fit_scaling(ds, 3, seed=7)
        b = fit_scaling(ds, 3, seed=7)
        for cba, cbb in zip(a.input_codebooks, b.input_codebooks):
            assert np.array_equal(cba, cbb)
        assert np.array_equal(a.decision_codebook, b.decision_codebook)

    def test_constant_attribute(self):
        ds = Dataset(np.full((10, 1), 0.5), np.linspace(0, 1, 10))
        with pytest.raises(ScalingError, match="constant"):
            fit_scaling(ds, 2, seed=0)

    def test_fewer_than_two_bins(self):
        ds = Dataset(np.linspace(0, 1, 10)[:, None], np.linspace(0, 1, 10))
        with pytest.raises(ScalingError, match="bins must be >= 2"):
            fit_scaling(ds, 1, seed=0)


def column_codebook(col, bins, seed):
    """One attribute's codebook from its own 1-D SOM, as `fit_scaling`
    once trained each attribute."""
    grid = train_som(Dataset(col[:, None], np.zeros(len(col))), (1, bins), SCALING_SOM, seed)
    return np.sort(grid.prototypes[:, 0])


class TestScalingParity:
    """The stacked scaling SOMs give each attribute the codebook of its own
    SOM, and fail on the same attribute for the same reason."""

    @pytest.mark.parametrize("bins, distinct", [(2, None), (3, None), (5, None), (5, 4), (8, 6)])
    def test_codebooks_equal_per_column_soms(self, bins, distinct):
        rng = np.random.default_rng(bins)
        if distinct is None:
            X, y = rng.random((90, 3)), rng.random(90)
        else:  # fewer distinct values than bins: initial prototypes repeat
            X = rng.integers(0, distinct, (90, 3)) / (distinct - 1)
            y = rng.integers(0, distinct, 90) / (distinct - 1)
        sm = fit_scaling(Dataset(X, y), bins, seed=11)
        codebooks = [*sm.input_codebooks, sm.decision_codebook]
        for j, col in enumerate([*X.T, y]):
            sub_seed = int(np.random.SeedSequence([11, j]).generate_state(1)[0])
            assert codebooks[j].tobytes() == column_codebook(col, bins, sub_seed).tobytes()

    def test_constant_column_named(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([rng.random(40), np.full(40, 0.3), np.full(40, 0.6)])
        with pytest.raises(ScalingError, match="constant attribute 'x2'"):
            fit_scaling(Dataset(X, rng.random(40)), 3, seed=0)

    def test_degenerate_column_named_before_a_later_constant_one(self):
        # Two distinct values cannot fill 5 bins; x3 is constant, but x2
        # comes first in column order.
        rng = np.random.default_rng(2)
        X = np.column_stack([rng.random(60), rng.integers(0, 2, 60), np.full(60, 0.5)])
        with pytest.raises(ScalingError, match="degenerate codebook for attribute 'x2'"):
            fit_scaling(Dataset(X, rng.random(60)), 5, seed=0)


@st.composite
def scaling_tables(draw):
    """A table of 1-30 rows and 1-3 inputs whose values come from a few
    levels, so that some attributes are constant or too coarse for the
    bins and their fit fails."""
    n, a, levels = draw(st.integers(1, 30)), draw(st.integers(1, 3)), draw(st.integers(1, 8))
    values = draw(st.lists(st.integers(0, levels - 1), min_size=n * (a + 1), max_size=n * (a + 1)))
    grid = np.array(values, dtype=np.float64).reshape(n, a + 1) / levels
    return Dataset(grid[:, :a], grid[:, a])


def scaling_outcome(fit):
    """A fit's codebooks as bytes, or its ScalingError's message."""
    try:
        sm = fit()
    except ScalingError as exc:
        return str(exc)
    return sm.input_codebooks.tobytes(), sm.decision_codebook.tobytes()


class TestScalingStack:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(scaling_tables(), min_size=1, max_size=5), st.integers(2, 6),
           st.lists(st.integers(0, 2**32 - 1), min_size=5, max_size=5))
    def test_each_member_equals_its_own_fit(self, tables, bins, seeds):
        """Members of unequal length and width, failing or not, each get
        what `fit_scaling` gives that table alone."""
        stack = fit_scaling_stack(tables, bins, seeds)
        for ds, seed, member in zip(tables, seeds, stack):
            own = scaling_outcome(lambda: fit_scaling(ds, bins, seed))
            got = str(member) if isinstance(member, ScalingError) else (
                member.input_codebooks.tobytes(), member.decision_codebook.tobytes())
            assert got == own

    def test_fewer_than_two_bins_raises_for_the_stack(self):
        ds = Dataset(np.linspace(0, 1, 10)[:, None], np.linspace(0, 1, 10))
        with pytest.raises(ScalingError, match="bins must be >= 2"):
            fit_scaling_stack([ds, ds], 1, [0, 1])


def ref_nearest_label(values, codebook):
    """One column's labels, as `ScalingMap` once discretized column by
    column: the reference for the array discretization."""
    d = np.abs(values[:, None] - codebook[None, :])
    return np.argmin(d, axis=1).astype(np.int64)


# Multiples of 1/8: midpoints of two centers, and their distances to both,
# are exact, so a midpoint ties.
DYADIC = st.integers(-80, 80).map(lambda i: i / 8)


@st.composite
def scaling_cases(draw):
    """Sorted codebooks (a + 1, bins) of distinct centers, inputs then the
    decision; values (n, a + 1) to discretize, each a free float, a center
    or the exact midpoint of centers k and k + 1; and `ties` (n, a + 1),
    holding k at each midpoint and -1 elsewhere."""
    a, bins, n = draw(st.integers(1, 3)), draw(st.integers(2, 5)), draw(st.integers(1, 8))
    codebooks = np.array([sorted(draw(st.lists(DYADIC, min_size=bins, max_size=bins, unique=True)))
                          for _ in range(a + 1)])
    values = np.empty((n, a + 1))
    ties = np.full((n, a + 1), -1)
    for i in range(n):
        for j, cb in enumerate(codebooks):
            k = draw(st.integers(-1, bins - 2))
            if k >= 0:
                values[i, j], ties[i, j] = (cb[k] + cb[k + 1]) / 2, k
            else:
                values[i, j] = draw(st.one_of(st.floats(-20, 20), st.sampled_from(cb.tolist())))
    return codebooks, values, ties


class TestApplyScaling:
    @settings(max_examples=300, deadline=None)
    @given(scaling_cases())
    def test_matches_the_per_column_loop(self, case):
        codebooks, values, ties = case
        sm = ScalingMap(codebooks[:-1], codebooks[-1])
        X, y = values[:, :-1], values[:, -1]
        ref_X = np.column_stack([ref_nearest_label(X[:, j], cb) for j, cb in enumerate(codebooks[:-1])])
        ref_y = ref_nearest_label(y, codebooks[-1])
        table = apply_scaling(sm, Dataset(X, y))
        for got, ref in ((sm.discretize_inputs(X), ref_X), (sm.discretize_decision(y), ref_y),
                         (table.conditions, ref_X), (table.decisions, ref_y)):
            assert got.dtype == np.int64
            assert np.array_equal(got, ref)
        labels = np.column_stack([sm.discretize_inputs(X), sm.discretize_decision(y)])
        assert np.array_equal(labels[ties >= 0], ties[ties >= 0])  # midpoints go to the lower label

    def test_random_values_match_the_absolute_difference(self):
        # 10,000 values per attribute against sorted random codebooks: the
        # kernels' squared distance picks the label `|x - c|` picks.
        rng = np.random.default_rng(17)
        codebooks = np.sort(rng.random((4, 7)), axis=1)
        sm = ScalingMap(list(codebooks[:-1]), codebooks[-1].tolist())
        values = rng.uniform(-0.2, 1.2, (10_000, 4))
        want = np.abs(values[:, :, None] - codebooks).argmin(axis=2)
        assert np.array_equal(sm.discretize_inputs(values[:, :-1]), want[:, :-1])
        assert np.array_equal(sm.discretize_decision(values[:, -1]), want[:, -1])

    def test_exact_center_and_tie(self):
        sm = ScalingMap([np.array([0.0, 1.0])], np.array([0.0, 1.0]))
        ds = Dataset(np.array([[0.0], [0.5], [1.0]]), np.array([0.0, 0.5, 1.0]))
        table = apply_scaling(sm, ds)
        assert list(table.conditions[:, 0]) == [0, 0, 1]  # tie at 0.5 -> lower label
        assert list(table.decisions) == [0, 0, 1]

    def test_monotonicity(self):
        sm = ScalingMap([np.array([0.1, 0.4, 0.9])], np.array([0.0, 1.0]))
        xs = np.sort(np.random.default_rng(1).random(100))
        ds = Dataset(xs[:, None], np.zeros(100))
        labels = apply_scaling(sm, ds).conditions[:, 0]
        assert (np.diff(labels) >= 0).all()


class TestPartitionApproximations:
    def test_partition_on_a(self, t0):
        assert indiscernibility_partition(t0, [0]) == [[0, 1], [2, 3]]

    def test_empty_subset_single_block(self, t0):
        assert indiscernibility_partition(t0, []) == [[0, 1, 2, 3]]

    def test_all_distinct_rows_singletons(self):
        table = build([(0, 0), (1, 1), (2, 2)], [0, 1, 2])
        assert indiscernibility_partition(table, [0, 1]) == [[0], [1], [2]]

    def test_t0_approximations(self, t0):
        lower, upper = approximations(t0, [0], {0, 1, 2})
        assert lower == {0, 1}
        assert upper == {0, 1, 2, 3}

    def test_full_and_empty_concepts(self, t0):
        assert approximations(t0, [0], {0, 1, 2, 3}) == ({0, 1, 2, 3}, {0, 1, 2, 3})
        assert approximations(t0, [0], set()) == (set(), set())

    def test_t0_dependency(self, t0):
        assert dependency_degree(t0, [0]) == 0.5

    def test_consistent_table_dependency_one(self):
        table = build([(0, 0), (1, 0), (2, 1)], [0, 1, 2])
        assert dependency_degree(table, [0, 1]) == 1.0

    def test_empty_conds_two_classes_zero(self, t0):
        assert dependency_degree(t0, []) == 0.0

    @given(tables)
    @settings(max_examples=200, deadline=None)
    def test_lower_subset_concept_subset_upper(self, tbl):
        conds, decs = tbl
        table = build(conds, decs)
        concept = {i for i, d in enumerate(decs) if d == 0}
        lower, upper = approximations(table, [0], concept)
        assert lower <= concept <= upper

    @given(tables)
    @settings(max_examples=200, deadline=None)
    def test_attribute_monotonicity(self, tbl):
        conds, decs = tbl
        table = build(conds, decs)
        concept = {i for i, d in enumerate(decs) if d <= 1}
        l1, u1 = approximations(table, [0], concept)
        l2, u2 = approximations(table, [0, 1], concept)
        assert l1 <= l2
        assert u2 <= u1
        assert dependency_degree(table, [0]) <= dependency_degree(table, [0, 1])

    @given(tables, st.permutations(range(3)), st.permutations(range(3)), st.permutations(range(3)))
    @settings(max_examples=200, deadline=None)
    def test_bin_label_equivariance(self, tbl, pa, pb, pd):
        """Relabeling bins per attribute permutes nothing observable:
        partitions, approximations, and dependency are unchanged."""
        conds, decs = tbl
        table = build(conds, decs)
        relabeled = build(
            [(pa[a], pb[b]) for a, b in conds],
            [pd[d] for d in decs],
        )
        for attrs in ([], [0], [1], [0, 1]):
            assert indiscernibility_partition(table, attrs) == indiscernibility_partition(relabeled, attrs)
            assert dependency_degree(table, attrs) == dependency_degree(relabeled, attrs)
        for v in range(3):
            concept = {i for i, d in enumerate(decs) if d == v}
            assert approximations(table, [0], concept) == approximations(relabeled, [0], {i for i, d in enumerate(decs) if pd[d] == pd[v]})

    @given(tables, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_object_permutation_equivariance(self, tbl, rnd):
        """Permuting object order permutes the results accordingly."""
        conds, decs = tbl
        n = len(decs)
        perm = list(range(n))
        rnd.shuffle(perm)
        table = build(conds, decs)
        permuted = build([conds[p] for p in perm], [decs[p] for p in perm])
        for attrs in ([0], [0, 1]):
            blocks_a = {frozenset(b) for b in indiscernibility_partition(table, attrs)}
            # map permuted blocks back into original indexing
            blocks_b = {frozenset(perm[i] for i in b) for b in indiscernibility_partition(permuted, attrs)}
            assert blocks_a == blocks_b
            assert dependency_degree(table, attrs) == dependency_degree(permuted, attrs)


def ref_classes(conditions, attrs):
    """`_classes` through `np.unique(axis=0)` over the attribute columns:
    the reference for the integer-key labelling."""
    _, first, inverse = np.unique(conditions[:, sorted(attrs)], axis=0,
                                  return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    return rank[inverse.reshape(-1)], np.sort(first)


INT64 = np.iinfo(np.int64)
# Per column, a pool of labels: a few small ones, or ones from anywhere in
# int64, so that the mixed-radix key needs renumbering on wide tables and
# its columns on spread-out labels.
LABEL_POOLS = [np.arange(3), np.arange(-3, 1000), np.array([INT64.min, -1, 0, 1, INT64.max])]


@st.composite
def label_tables(draw):
    """Conditions (n, a) with 1-12 rows and 0-60 attributes, each column
    drawn from one pool of LABEL_POOLS, and a subset of the attributes."""
    n, a = draw(st.integers(1, 12)), draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conditions = np.empty((n, a), dtype=np.int64)
    for j in range(a):
        pool = rng.choice(LABEL_POOLS[rng.integers(len(LABEL_POOLS))], size=rng.integers(1, 5))
        conditions[:, j] = rng.choice(pool, size=n)
    attrs = draw(st.lists(st.integers(0, a - 1), unique=True)) if a else []
    return conditions, attrs


class TestClassLabels:
    @settings(max_examples=300, deadline=None)
    @given(label_tables())
    def test_integer_key_matches_row_unique(self, case):
        conditions, attrs = case
        table = DecisionTable(conditions, np.zeros(len(conditions), dtype=np.int64))
        got, expected = _classes(table, attrs), ref_classes(conditions, attrs)
        assert got[0].tolist() == expected[0].tolist()
        assert got[1].tolist() == expected[1].tolist()

    @pytest.mark.parametrize("attrs", [[], list(range(70))], ids=["empty-attrs", "all-70"])
    def test_wide_table_of_full_range_labels(self, attrs):
        # 70 columns of labels spread over int64: the key is renumbered
        # before every column, and each column is renumbered as well.
        rng = np.random.default_rng(4)
        conditions = rng.choice(LABEL_POOLS[2], size=(40, 70))
        conditions[20:] = conditions[:20]  # every class has two objects
        table = DecisionTable(conditions, np.zeros(40, dtype=np.int64))
        got, expected = _classes(table, attrs), ref_classes(conditions, attrs)
        assert got[0].tolist() == expected[0].tolist()
        assert got[1].tolist() == expected[1].tolist()

    def test_no_rows(self):
        table = DecisionTable(np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64))
        labels_, first = _classes(table, [0, 1])
        assert labels_.size == 0 and first.size == 0


class TestInduceClassify:
    def test_t0_rules(self, t0, t0_scaling):
        rules = induce_rules(t0, t0_scaling)
        by_pattern = {r[0]: r for r in rule_rows(rules)}
        assert len(rules) == 2
        _, decision, support, certain = by_pattern[(0,)]
        assert certain and decision == 0 and support == 2
        _, decision, support, certain = by_pattern[(1,)]
        assert not certain and decision == 1 and support == 2  # highest label wins

    def test_default_decision_majority_ties_high(self, t0_scaling):
        table = DecisionTable(np.array([[0], [1]]), np.array([0, 1]))
        rules = induce_rules(table, t0_scaling)
        assert rules.default_decision == 1

    def test_empty_table_rejected(self, t0_scaling):
        table = DecisionTable(np.empty((0, 1)), np.empty(0))
        with pytest.raises(ValueError, match="empty decision table"):
            induce_rules(table, t0_scaling)
        with pytest.raises(ValueError, match="empty decision table"):
            dependency_degree(table, [0])

    def test_classify_t0(self, t0, t0_scaling):
        rules = induce_rules(t0, t0_scaling)
        assert classify(rules, [0.1]) == 0
        assert classify(rules, [0.9]) == 1

    def test_classify_hamming_fallback(self):
        sm = ScalingMap([np.array([0.0, 1.0]), np.array([0.0, 1.0])], np.array([0.0, 1.0]))
        table = DecisionTable(np.array([[0, 0], [1, 1]]), np.array([0, 1]))
        rules = induce_rules(table, sm)
        # (0,1) is at Hamming distance 1 from both; equal support -> higher decision
        assert classify(rules, [0.1, 0.9]) == 1

    def test_training_objects_reproduce_their_rule(self, t0_scaling):
        rng = np.random.default_rng(5)
        X = rng.random((30, 1))
        y = (X[:, 0] > 0.5).astype(float)
        ds = Dataset(X, y)
        sm = ScalingMap([np.array([0.25, 0.75])], np.array([0.0, 1.0]))
        table = apply_scaling(sm, ds)
        rules = induce_rules(table, sm)
        if dependency_degree(table, [0]) == 1.0:
            for x, d in zip(X, table.decisions):
                assert classify(rules, x) == d

    @given(rule_tables)
    @settings(max_examples=300, deadline=None)
    def test_rules_match_the_per_block_loop(self, tbl):
        """Rule order, descriptors, decisions, support, certainty and the
        default decision equal the per-block loop's; `classify_rows`
        breaks its last ties by rule order."""
        conds, decs = tbl
        scaling = ScalingMap([np.array([0.0, 0.5, 1.0])] * len(conds[0]), np.array([0.0, 1.0]))
        rules = induce_rules(build(conds, decs), scaling)
        expected, default = ref_induce_rules(conds, decs)
        assert rule_rows(rules) == expected
        assert rules.default_decision == default


def ref_induce_rules(conds, decs):
    """The per-block dict loop: one rule per distinct row pattern, in order
    of first occurrence, an ambiguous one deciding its highest label; the
    default is the majority decision, ties toward the higher label."""
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(conds):
        groups.setdefault(tuple(row), []).append(i)
    rules = []
    for pattern, idx in groups.items():
        decisions = [decs[i] for i in idx]
        certain = len(set(decisions)) == 1
        rules.append((pattern, decisions[0] if certain else max(decisions), len(idx), certain))
    counts = {d: decs.count(d) for d in decs}
    default = max(d for d, c in counts.items() if c == max(counts.values()))
    return rules, default


def ref_classify(rules, x):
    """The per-rule classifier loop: the first exact match, else the least
    (distance, -support, -decision), ties to the earlier rule."""
    pattern = tuple(map(int, rules.scaling.discretize_inputs(np.asarray(x, dtype=np.float64).reshape(1, -1))[0]))
    if not len(rules):
        return rules.default_decision
    best_decision = None
    best_key = None
    for descriptors, decision, support in zip(rules.descriptors, rules.decisions, rules.support):
        dist = sum(p != q for p, q in zip(pattern, descriptors))
        if dist == 0:
            return decision
        key = (dist, -support, -decision)
        if best_key is None or key < best_key:
            best_key = key
            best_decision = decision
    return best_decision


class TestClassifierParity:
    """`classify` and `mse` against the per-rule loop, on rule sets drawn
    from few patterns, supports and decisions, so ties in every key and
    repeated patterns are common."""

    SCALING = ScalingMap([np.array([0.0, 0.5, 1.0])] * 3, np.array([0.0, 0.5, 1.0]))

    def random_rules(self, rng, n_rules):
        # Drawn rule by rule: pattern, decision, support, certainty.
        rows = [(*rng.integers(0, 3, 3), rng.integers(0, 3), rng.integers(1, 3), rng.integers(0, 2))
                for _ in range(n_rules)]
        cols = np.array(rows, dtype=np.int64).reshape(n_rules, 6)
        return RuleSet(cols[:, :3], cols[:, 3], cols[:, 4], cols[:, 5].astype(bool),
                       self.SCALING, int(rng.integers(0, 3)))

    def test_random_rule_sets(self):
        rng = np.random.default_rng(0)
        for trial in range(300):
            rules = self.random_rules(rng, int(rng.integers(0, 12)))
            # Values at the bin centers and between them.
            X = rng.integers(0, 5, (25, 3)) / 4.0
            y = rng.random(25)
            expected = [ref_classify(rules, x) for x in X]
            assert [classify(rules, x) for x in X] == expected
            real = self.SCALING.discretize_decision(y)
            assert mse(rules, Dataset(X, y)) == float(np.mean((real - np.array(expected)) ** 2))

    def test_exact_match_after_closer_keyed_rules(self):
        rules = RuleSet(np.array([[0, 0, 1],  # distance 1, larger support
                                  [0, 0, 0],  # first exact match
                                  [0, 0, 0]]),
                        np.array([2, 1, 0]), np.array([9, 1, 5]), np.ones(3, dtype=bool), self.SCALING, 2)
        x = [0.0, 0.1, 0.2]
        assert classify(rules, x) == ref_classify(rules, x) == 1

    def test_row_blocks_bound_memory(self, monkeypatch):
        # One pass holds (n, r) int64 distance and key matrices and their
        # temporaries, about 240 MiB here.
        rng = np.random.default_rng(3)
        rules = self.random_rules(rng, 100)
        X = rng.integers(0, 5, (10**5, 3)) / 4.0
        tracemalloc.start()
        try:
            labels = classify_rows(rules, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 2**40)  # the first 5000 rows in one pass
        assert np.array_equal(labels[:5000], classify_rows(rules, X[:5000]))

    def test_empty_rule_set_gives_default(self):
        empty = np.empty(0, dtype=np.int64)
        rules = RuleSet(np.empty((0, 3), dtype=np.int64), empty, empty, empty.astype(bool), self.SCALING, 2)
        X = np.array([[0.0, 0.5, 1.0], [1.0, 1.0, 1.0]])
        assert classify(rules, X[0]) == ref_classify(rules, X[0]) == 2
        assert mse(rules, Dataset(X, np.array([0.0, 1.0]))) == 2.0


class TestMse:
    def test_empty_test_set(self):
        sm = ScalingMap([np.array([0.0, 1.0])], np.array([0.0, 1.0]))
        rules = induce_rules(DecisionTable(np.array([[0]]), np.array([0])), sm)
        with pytest.raises(ValueError, match="empty test set"):
            mse(rules, Dataset(np.empty((0, 1)), np.empty(0)))

    def test_zero_when_all_correct(self):
        sm = ScalingMap([np.array([0.0, 1.0])], np.array([0.0, 1.0]))
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        rules = induce_rules(apply_scaling(sm, ds), sm)
        assert mse(rules, ds) == 0.0

    def test_label_arithmetic(self):
        # real labels (2, 0) vs classified (0, 0): (4 + 0) / 2 = 2
        sm = ScalingMap([np.array([0.0, 1.0])], np.array([0.0, 0.5, 1.0]))
        table = DecisionTable(np.array([[0], [1]]), np.array([0, 0]))
        rules = induce_rules(table, sm)
        test = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))
        assert mse(rules, test) == pytest.approx(2.0)

    def test_bounded_by_label_range(self):
        sm = ScalingMap([np.array([0.0, 1.0])], np.array([0.0, 0.5, 1.0]))
        table = DecisionTable(np.array([[0], [1]]), np.array([0, 2]))
        rules = induce_rules(table, sm)
        rng = np.random.default_rng(8)
        test = Dataset(rng.random((50, 1)), rng.random(50))
        assert mse(rules, test) <= (3 - 1) ** 2


def test_rules_serialization(t0, t0_scaling):
    rules = induce_rules(t0, t0_scaling)
    doc = rules.to_dict()
    assert doc["scaling"] == {"input_codebooks": [[0.0, 1.0]], "decision_codebook": [0.0, 1.0]}
    assert len(doc["rules"]) == 2
    assert doc["rules"][0] == {"descriptors": [0], "decision": 0, "support": 2, "certain": True}
    assert doc["rules"][1] == {"descriptors": [1], "decision": 1, "support": 2, "certain": False}


def test_serialized_rules_classify_on_their_own():
    """A rule set's document, through JSON, holds the codebooks bit for bit
    and rebuilds a classifier that labels as the original does."""
    rng = np.random.default_rng(12)
    train = Dataset(rng.random((60, 3)), rng.random(60))
    scaling = fit_scaling(train, 3, seed=5)
    rules = induce_rules(apply_scaling(scaling, train), scaling)
    doc = json.loads(json.dumps(rules.to_dict()))
    codebooks = doc["scaling"]
    assert np.array(codebooks["input_codebooks"]).tobytes() == scaling.input_codebooks.tobytes()
    assert np.array(codebooks["decision_codebook"]).tobytes() == scaling.decision_codebook.tobytes()
    rebuilt = RuleSet(
        np.array([r["descriptors"] for r in doc["rules"]]), np.array([r["decision"] for r in doc["rules"]]),
        np.array([r["support"] for r in doc["rules"]]), np.array([r["certain"] for r in doc["rules"]]),
        ScalingMap(codebooks["input_codebooks"], codebooks["decision_codebook"]), doc["default_decision"])
    test = rng.random((40, 3))
    assert classify_rows(rebuilt, test).tolist() == classify_rows(rules, test).tolist()
