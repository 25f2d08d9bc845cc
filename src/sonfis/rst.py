"""Second granulation, rough branch: adaptive scaling (per-attribute 1-D SOM
discretization), decision tables, lower/upper approximations, dependency
degree, rule induction with highest-label ambiguity resolution, and the
resulting classifier with its MSE performance measure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dataset import Dataset
from .som import SomParams, train_column_soms, train_som  # noqa: F401

# `train_som` is imported only so that `rst.train_som` still resolves:
# perfbench/layers.py wraps it by that name on every traced workload.


class ScalingError(ValueError):
    pass


# The scaling SOMs' schedule. A tight final radius makes each codebook end
# close to k-means cluster means, not smoothed toward its neighbors.
SCALING_SOM = SomParams(epochs=30, final_radius=0.2)


@dataclass
class ScalingMap:
    """Sorted codebooks of bin centers, one row per input attribute and one
    for the decision; bin label = index of the nearest center, found by the
    SOM kernels' search (ties toward the lower label)."""

    input_codebooks: np.ndarray  # (a, bins)
    decision_codebook: np.ndarray  # (bins,)

    def __post_init__(self):
        self.input_codebooks = np.asarray(self.input_codebooks, dtype=np.float64)
        self.decision_codebook = np.asarray(self.decision_codebook, dtype=np.float64)

    def discretize_inputs(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return kernels.assign_exact(X.T[:, :, None], self.input_codebooks[:, :, None]).T

    def discretize_decision(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        return kernels.assign_bmus(y[:, None], self.decision_codebook[:, None])


@dataclass
class DecisionTable:
    conditions: np.ndarray  # (n, a) int labels
    decisions: np.ndarray  # (n,) int labels

    def __post_init__(self):
        self.conditions = np.atleast_2d(np.asarray(self.conditions, dtype=np.int64))
        self.decisions = np.asarray(self.decisions, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.decisions)


@dataclass(eq=False)
class RuleSet:
    """One rule per row: rule i requires bin label `descriptors[i, j]` on
    condition attribute j and decides `decisions[i]`; `support[i]` objects
    back it, all with that decision when `certain[i]`. Rows are in rule
    order, which breaks the classifier's last ties."""

    descriptors: np.ndarray  # (r, a) int labels
    decisions: np.ndarray  # (r,) int labels
    support: np.ndarray  # (r,) ints
    certain: np.ndarray  # (r,) bools
    scaling: ScalingMap
    default_decision: int

    def __len__(self) -> int:
        return len(self.decisions)

    def to_json(self) -> str:
        return json.dumps(
            {
                "default_decision": self.default_decision,
                "rules": [
                    {
                        "descriptors": list(map(int, d)),
                        "decision": int(c),
                        "support": int(n),
                        "certain": bool(k),
                    }
                    for d, c, n, k in zip(self.descriptors, self.decisions, self.support, self.certain)
                ],
            },
            indent=2,
        )


def fit_scaling(train: Dataset, bins: int, seed: int) -> ScalingMap:
    """Learn per-attribute bin codebooks with 1-D batch SOMs (dims (1, bins))
    over each attribute's scalar values, decision included, trained
    together, then sort each codebook ascending. Attribute j's SOM is seeded
    from `SeedSequence([seed, j])`. The first attribute, in column order,
    that is constant or whose codebook has a repeated center raises
    ScalingError."""
    if bins < 2:
        raise ScalingError("bins must be >= 2")
    values = np.column_stack([train.X, train.y])
    seeds = [int(np.random.SeedSequence([seed, j]).generate_state(1)[0]) for j in range(values.shape[1])]
    codebooks = np.sort(train_column_soms(values, bins, SCALING_SOM, seeds), axis=1)
    for name, col, cb in zip(train.attribute_names, values.T, codebooks):
        if col.max() <= col.min():
            raise ScalingError(f"constant attribute {name!r}")
        if not (np.diff(cb) > 0).all():
            raise ScalingError(f"degenerate codebook for attribute {name!r}")
    return ScalingMap(codebooks[:-1], codebooks[-1])


def apply_scaling(scaling: ScalingMap, ds: Dataset) -> DecisionTable:
    """Map every value to the label of its nearest codebook center."""
    return DecisionTable(scaling.discretize_inputs(ds.X), scaling.discretize_decision(ds.y))


def _classes(table: DecisionTable, attrs) -> tuple[np.ndarray, np.ndarray]:
    """The indiscernibility classes over `attrs`, numbered in order of first
    occurrence: each object's class label, and each class's first object.
    An empty subset yields one class holding every object."""
    _, first, inverse = np.unique(
        table.conditions[:, sorted(attrs)], axis=0, return_index=True, return_inverse=True
    )
    rank = np.argsort(np.argsort(first))
    return rank[inverse.reshape(-1)], np.sort(first)


def _value_range(values: np.ndarray, labels: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least and greatest of `values` within each class of `_classes`."""
    lo, hi = values[first], values[first]
    np.minimum.at(lo, labels, values)
    np.maximum.at(hi, labels, values)
    return lo, hi


def indiscernibility_partition(table: DecisionTable, attrs) -> list[list[int]]:
    """Blocks of objects agreeing on all of `attrs`; an empty subset yields
    one block holding every object. Blocks in order of first occurrence."""
    labels, first = _classes(table, attrs)
    return [np.flatnonzero(labels == k).tolist() for k in range(len(first))]


def approximations(table: DecisionTable, attrs, concept) -> tuple[set[int], set[int]]:
    """Lower and upper approximation of `concept` (a set of object indices)
    w.r.t. the indiscernibility relation over `attrs`."""
    concept = set(concept)
    labels, first = _classes(table, attrs)
    member = np.array([i in concept for i in range(len(table))], dtype=np.int64)
    lo, hi = _value_range(member, labels, first)
    return set(np.flatnonzero(lo[labels]).tolist()), set(np.flatnonzero(hi[labels]).tolist())


def dependency_degree(table: DecisionTable, conds) -> float:
    """gamma = |POS| / |U|: fraction of objects whose condition class is
    pure in decision."""
    if len(table) == 0:
        raise ValueError("empty decision table")
    labels, first = _classes(table, conds)
    lo, hi = _value_range(table.decisions, labels, first)
    return int(np.count_nonzero((lo == hi)[labels])) / len(table)


def induce_rules(table: DecisionTable, scaling: ScalingMap) -> RuleSet:
    """One rule per distinct condition pattern (full conjunction), in order
    of first occurrence. Pure patterns give certain rules; ambiguous ones
    resolve to the highest decision label among their objects. The default
    decision is the majority decision of the table, ties toward the higher
    label."""
    if len(table) == 0:
        raise ValueError("empty decision table")
    labels, first = _classes(table, range(table.conditions.shape[1]))
    lo, hi = _value_range(table.decisions, labels, first)
    counts = np.bincount(table.decisions)
    default = int(np.nonzero(counts == counts.max())[0].max())
    return RuleSet(table.conditions[first], hi, np.bincount(labels), lo == hi, scaling, default)


def classify_rows(rules: RuleSet, X) -> np.ndarray:
    """Discretize raw input rows (n, a), or one vector, and classify each: the first rule in
    rule order whose pattern matches exactly, else the rule at minimal
    Hamming distance (ties toward larger support, then higher decision, then
    the earlier rule); an empty rule set yields the default."""
    patterns = rules.scaling.discretize_inputs(X)
    if not len(rules):
        return np.full(len(patterns), rules.default_decision, dtype=np.int64)
    descriptors = rules.descriptors
    dist = np.zeros((len(patterns), len(descriptors)), dtype=np.int64)
    for j in range(descriptors.shape[1]):
        dist += patterns[:, j, None] != descriptors[None, :, j]
    nearest = dist.min(axis=1)
    best = dist == nearest[:, None]  # argmax below takes the first candidate
    inexact = nearest > 0
    candidates = best[inexact]
    for key in (rules.support, rules.decisions):
        keyed = np.where(candidates, key, np.iinfo(np.int64).min)
        candidates &= keyed == keyed.max(axis=1, keepdims=True)
    best[inexact] = candidates
    return rules.decisions[best.argmax(axis=1)]


def classify(rules: RuleSet, x) -> int:
    """Classify one raw input vector, as `classify_rows` does a row."""
    return int(classify_rows(rules, x)[0])


def mse(rules: RuleSet, test: Dataset) -> float:
    """Mean squared difference between the true decision bin labels of the
    test objects and the labels assigned by the rule classifier."""
    if len(test) == 0:
        raise ValueError("empty test set")
    real = rules.scaling.discretize_decision(test.y)
    return float(np.mean((real - classify_rows(rules, test.X)) ** 2))
