import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonfis.dataset import Dataset
from sonfis.rst import (
    DecisionTable,
    ScalingError,
    ScalingMap,
    apply_scaling,
    approximations,
    classify,
    dependency_degree,
    fit_scaling,
    indiscernibility_partition,
    induce_rules,
    mse,
)


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


def build(conds, decs):
    return DecisionTable(np.array(conds, dtype=int), np.array(decs, dtype=int))


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


class TestApplyScaling:
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


class TestInduceClassify:
    def test_t0_rules(self, t0, t0_scaling):
        rules = induce_rules(t0, t0_scaling)
        by_pattern = {r.descriptors: r for r in rules.rules}
        assert len(rules) == 2
        r0 = by_pattern[(0,)]
        assert r0.certain and r0.decision == 0 and r0.support == 2
        r1 = by_pattern[(1,)]
        assert not r1.certain and r1.decision == 1 and r1.support == 2  # highest label wins

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


class TestMse:
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
    import json

    rules = induce_rules(t0, t0_scaling)
    doc = json.loads(rules.to_json())
    assert len(doc["rules"]) == 2
    text = rules.to_text(["a"])
    assert "IF a=low THEN d=low [certain, support=2]" in text
    assert "IF a=high THEN d=high [possible, support=2]" in text
