"""Second granulation, rough branch: adaptive scaling (per-attribute 1-D SOM
discretization), decision tables, lower/upper approximations, dependency
degree, rule induction with highest-label ambiguity resolution, and the
resulting classifier with its MSE performance measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .dataset import Dataset, derive_seed
from .som import SomParams, train_column_soms, train_som  # noqa: F401

# `train_som` is imported only so that `rst.train_som` still resolves:
# perfbench/layers.py wraps it by that name on every traced workload.


class ScalingError(ValueError):
    pass


_KEY_LIMIT = np.iinfo(np.int64).max  # `_classes` keeps each key and radix within it


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
        return kernels.assign_exact(y[None, :, None], self.decision_codebook[None, :, None])[0]


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

    def to_dict(self) -> dict:
        return {
            "scaling": {"input_codebooks": self.scaling.input_codebooks.tolist(),
                        "decision_codebook": self.scaling.decision_codebook.tolist()},
            "default_decision": self.default_decision,
            "rules": [
                {"descriptors": list(map(int, d)), "decision": int(c), "support": int(n), "certain": bool(k)}
                for d, c, n, k in zip(self.descriptors, self.decisions, self.support, self.certain)
            ],
        }


def fit_scaling(train: Dataset, bins: int, seed: int) -> ScalingMap:
    """Learn per-attribute bin codebooks with 1-D batch SOMs (dims (1, bins))
    over each attribute's scalar values, decision included, trained
    together, then sort each codebook ascending. Attribute j's SOM is seeded
    with `derive_seed(seed, j)`. The first attribute, in column order,
    that is constant or whose codebook has a repeated center raises
    ScalingError."""
    (scaling,) = fit_scaling_stack([train], bins, [seed])
    if isinstance(scaling, ScalingError):
        raise scaling
    return scaling


def fit_scaling_stack(tables, bins: int, seeds) -> list[ScalingMap | ScalingError]:
    """`fit_scaling` of each of `tables` with its entry of `seeds`, every
    table's scaling SOMs trained as one stack. Returns, per table, the
    ScalingMap its own call returns or the ScalingError it raises."""
    if bins < 2:
        raise ScalingError("bins must be >= 2")
    columns = [col for ds in tables for col in (*ds.X.T, ds.y)]
    col_seeds = [derive_seed(seed, j) for ds, seed in zip(tables, seeds) for j in range(ds.X.shape[1] + 1)]
    codebooks = np.sort(train_column_soms(columns, bins, SCALING_SOM, col_seeds), axis=1)
    out, start = [], 0
    for ds in tables:
        stop = start + ds.X.shape[1] + 1
        out.append(_scaling_map(ds, codebooks[start:stop]))
        start = stop
    return out


def _scaling_map(ds: Dataset, codebooks: np.ndarray) -> ScalingMap | ScalingError:
    """The ScalingMap of `ds`'s sorted codebooks, inputs then decision, or
    the ScalingError of its first failing attribute."""
    for name, col, cb in zip(ds.attribute_names, (*ds.X.T, ds.y), codebooks):
        if col.max() <= col.min():
            return ScalingError(f"constant attribute {name!r}")
        if not (np.diff(cb) > 0).all():
            return ScalingError(f"degenerate codebook for attribute {name!r}")
    return ScalingMap(codebooks[:-1], codebooks[-1])


def apply_scaling(scaling: ScalingMap, ds: Dataset) -> DecisionTable:
    """Map every value to the label of its nearest codebook center."""
    return DecisionTable(scaling.discretize_inputs(ds.X), scaling.discretize_decision(ds.y))


def _classes(table: DecisionTable, attrs) -> tuple[np.ndarray, np.ndarray]:
    """The indiscernibility classes over `attrs`, numbered in order of first
    occurrence: each object's class label, and each class's first object.
    An empty subset yields one class holding every object.

    Each row is keyed by one int64, its labels on `attrs` read as the
    digits of a mixed-radix number (radix: a column's label range). When
    the next digit could overflow the key, the partial key is first
    renumbered densely, which keeps it below the row count; a column whose
    labels alone span most of int64 is renumbered too."""
    cols = table.conditions[:, sorted(attrs)]
    if not len(cols):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    key, span = np.zeros(len(cols), dtype=np.int64), 1  # 0 <= key < span
    for col, lo, hi in zip(cols.T, cols.min(axis=0).tolist(), cols.max(axis=0).tolist()):
        radix = hi - lo + 1
        if span * radix > _KEY_LIMIT:
            uniq, key = np.unique(key, return_inverse=True)
            span = len(uniq)
            if span * radix > _KEY_LIMIT:
                uniq, col = np.unique(col, return_inverse=True)
                lo, radix = 0, len(uniq)
        key = key * radix + (col - lo)
        span *= radix
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    return rank[inverse], np.sort(first)


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
    the earlier rule); an empty rule set yields the default. Each row's
    label depends on that row alone, so the rows are classified in blocks
    of `kernels.BLOCK_ELEMENTS // len(rules)`, with (rows, r) distance
    matrices of about BLOCK_ELEMENTS elements instead of (n, r)."""
    patterns = rules.scaling.discretize_inputs(X)
    r = len(rules)
    if not r:
        return np.full(len(patterns), rules.default_decision, dtype=np.int64)
    descriptors = rules.descriptors
    # Each rule's priority among equally near ones; lexsort is stable, so
    # rule order breaks the last tie. An exact match keys by rule order
    # alone, below every inexact key dist * r + rank >= r.
    rank = np.empty(r, dtype=np.int64)
    rank[np.lexsort((-rules.decisions, -rules.support))] = np.arange(r)
    labels = np.empty(len(patterns), dtype=rules.decisions.dtype)
    step = max(1, kernels.BLOCK_ELEMENTS // r)
    for lo in range(0, len(patterns), step):
        block = patterns[lo:lo + step]
        dist = np.zeros((len(block), r), dtype=np.int64)
        for j in range(descriptors.shape[1]):
            dist += block[:, j, None] != descriptors[None, :, j]
        key = np.where(dist == 0, np.arange(r), dist * r + rank)
        labels[lo:lo + step] = rules.decisions[key.argmin(axis=1)]
    return labels


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
