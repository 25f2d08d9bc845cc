"""Second granulation, rough branch: adaptive scaling (per-attribute 1-D SOM
discretization), decision tables, lower/upper approximations, dependency
degree, rule induction with highest-label ambiguity resolution, and the
resulting classifier with its MSE performance measure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .som import SomParams, train_som


class ScalingError(ValueError):
    pass


_BIN_NAMES = {
    2: ["low", "high"],
    3: ["low", "middle", "high"],
    4: ["very low", "low", "high", "very high"],
    5: ["very low", "low", "middle", "high", "very high"],
}

# The scaling SOMs' schedule. A tight final radius makes each codebook end
# close to k-means cluster means, not smoothed toward its neighbors.
SCALING_SOM = SomParams(epochs=30, final_radius=0.2)


@dataclass
class ScalingMap:
    """Per-attribute sorted codebooks of bin centers; bin label = index of
    the nearest center (ties toward the lower label)."""

    input_codebooks: list[np.ndarray]
    decision_codebook: np.ndarray

    @property
    def input_bin_counts(self) -> list[int]:
        return [len(cb) for cb in self.input_codebooks]

    @property
    def decision_bin_count(self) -> int:
        return len(self.decision_codebook)

    def discretize_inputs(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        cols = [_nearest_label(X[:, j], cb) for j, cb in enumerate(self.input_codebooks)]
        return np.column_stack(cols)

    def discretize_decision(self, y: np.ndarray) -> np.ndarray:
        return _nearest_label(np.asarray(y, dtype=np.float64), self.decision_codebook)


def _nearest_label(values: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    d = np.abs(values[:, None] - codebook[None, :])
    return np.argmin(d, axis=1).astype(np.int64)


@dataclass
class DecisionTable:
    conditions: np.ndarray  # (n, a) int labels
    decisions: np.ndarray  # (n,) int labels

    def __post_init__(self):
        self.conditions = np.atleast_2d(np.asarray(self.conditions, dtype=np.int64))
        self.decisions = np.asarray(self.decisions, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.decisions)


@dataclass
class DecisionRule:
    descriptors: tuple[int, ...]  # required bin label per condition attribute
    decision: int
    support: int
    certain: bool


@dataclass
class RuleSet:
    rules: list[DecisionRule]
    scaling: ScalingMap
    default_decision: int

    def __len__(self) -> int:
        return len(self.rules)

    def to_json(self) -> str:
        return json.dumps(
            {
                "default_decision": self.default_decision,
                "rules": [
                    {
                        "descriptors": list(map(int, r.descriptors)),
                        "decision": int(r.decision),
                        "support": int(r.support),
                        "certain": r.certain,
                    }
                    for r in self.rules
                ],
            },
            indent=2,
        )

    def to_text(self, attribute_names=None) -> str:
        """Human-readable rules, with ordinal names (low..high) whenever an
        attribute has at most 5 bins."""
        a = len(self.rules[0].descriptors) if self.rules else len(self.scaling.input_codebooks)
        names = attribute_names or [f"a{i + 1}" for i in range(a)]

        def bin_name(label: int, count: int) -> str:
            if count in _BIN_NAMES:
                return _BIN_NAMES[count][label]
            return str(label)

        cbins = self.scaling.input_bin_counts
        dbins = self.scaling.decision_bin_count
        lines = []
        for r in self.rules:
            lhs = " AND ".join(
                f"{nm}={bin_name(v, cb)}" for nm, v, cb in zip(names, r.descriptors, cbins)
            )
            kind = "certain" if r.certain else "possible"
            lines.append(f"IF {lhs} THEN d={bin_name(r.decision, dbins)} [{kind}, support={r.support}]")
        return "\n".join(lines)


def fit_scaling(train: Dataset, bins: int, seed: int) -> ScalingMap:
    """Learn per-attribute bin codebooks with 1-D batch SOMs (dims (1, bins))
    over each attribute's scalar values, decision included, then sort each
    codebook ascending."""
    if bins < 2:
        raise ScalingError("bins must be >= 2")

    def fit_one(name: str, values: np.ndarray, sub_seed: int) -> np.ndarray:
        if values.max() <= values.min():
            raise ScalingError(f"constant attribute {name!r}")
        ds1 = Dataset(values[:, None], np.zeros(len(values)), [name, "d"])
        grid = train_som(ds1, (1, bins), SCALING_SOM, sub_seed)
        cb = np.sort(grid.prototypes[:, 0])
        if not (np.diff(cb) > 0).all():
            raise ScalingError(f"degenerate codebook for attribute {name!r}")
        return cb

    input_cbs = []
    for j in range(train.n_inputs):
        sub_seed = int(np.random.SeedSequence([seed, j]).generate_state(1)[0])
        input_cbs.append(fit_one(train.attribute_names[j], train.X[:, j], sub_seed))
    dec_seed = int(np.random.SeedSequence([seed, train.n_inputs]).generate_state(1)[0])
    dec_cb = fit_one(train.decision_name, train.y, dec_seed)
    return ScalingMap(input_cbs, dec_cb)


def apply_scaling(scaling: ScalingMap, ds: Dataset) -> DecisionTable:
    """Map every value to the label of its nearest codebook center."""
    return DecisionTable(scaling.discretize_inputs(ds.X), scaling.discretize_decision(ds.y))


def indiscernibility_partition(table: DecisionTable, attrs) -> list[list[int]]:
    """Blocks of objects agreeing on all of `attrs`; an empty subset yields
    one block holding every object. Blocks in order of first occurrence."""
    attrs = sorted(attrs)
    groups: dict[tuple, list[int]] = {}
    conds = table.conditions
    for i in range(len(table)):
        key = tuple(conds[i, a] for a in attrs)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def approximations(table: DecisionTable, attrs, concept) -> tuple[set[int], set[int]]:
    """Lower and upper approximation of `concept` (a set of object indices)
    w.r.t. the indiscernibility relation over `attrs`."""
    concept = set(concept)
    lower: set[int] = set()
    upper: set[int] = set()
    for block in indiscernibility_partition(table, attrs):
        bs = set(block)
        if bs <= concept:
            lower |= bs
        if bs & concept:
            upper |= bs
    return lower, upper


def dependency_degree(table: DecisionTable, conds) -> float:
    """gamma = |POS| / |U|: fraction of objects whose condition class is
    pure in decision."""
    if len(table) == 0:
        raise ValueError("empty decision table")
    dec = table.decisions
    pos = 0
    for block in indiscernibility_partition(table, conds):
        vals = dec[block]
        if (vals == vals[0]).all():
            pos += len(block)
    return pos / len(table)


def induce_rules(table: DecisionTable, scaling: ScalingMap) -> RuleSet:
    """One rule per distinct condition pattern (full conjunction). Pure
    patterns give certain rules; ambiguous ones resolve to the highest
    decision label among their objects. The default decision is the majority
    decision of the table, ties toward the higher label."""
    if len(table) == 0:
        raise ValueError("empty decision table")
    rules = []
    for idx in indiscernibility_partition(table, range(table.conditions.shape[1])):
        decisions = table.decisions[idx]
        certain = bool((decisions == decisions[0]).all())
        decision = int(decisions[0]) if certain else int(decisions.max())
        rules.append(DecisionRule(tuple(map(int, table.conditions[idx[0]])), decision, len(idx), certain))
    counts = np.bincount(table.decisions)
    best = counts.max()
    default = int(np.nonzero(counts == best)[0].max())
    return RuleSet(rules, scaling, default)


def classify(rules: RuleSet, x) -> int:
    """Discretize a raw input vector and classify it: exact pattern match
    first, else the rule at minimal Hamming distance (ties toward larger
    support, then higher decision); an empty rule set yields the default."""
    pattern = tuple(map(int, rules.scaling.discretize_inputs(np.asarray(x, dtype=np.float64).reshape(1, -1))[0]))
    if not rules.rules:
        return rules.default_decision
    best_rule = None
    best_key = None
    for r in rules.rules:
        dist = sum(p != q for p, q in zip(pattern, r.descriptors))
        if dist == 0:
            return r.decision
        key = (dist, -r.support, -r.decision)
        if best_key is None or key < best_key:
            best_key = key
            best_rule = r
    return best_rule.decision


def mse(rules: RuleSet, test: Dataset) -> float:
    """Mean squared difference between the true decision bin labels of the
    test objects and the labels assigned by the rule classifier."""
    if len(test) == 0:
        raise ValueError("empty test set")
    real = rules.scaling.discretize_decision(test.y)
    classified = np.array([classify(rules, x) for x in test.X], dtype=np.int64)
    return float(np.mean((real - classified) ** 2))
