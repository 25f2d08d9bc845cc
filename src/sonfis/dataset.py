"""Numeric dataset handling: CSV ingestion, min-max normalization, splits,
and the synthetic surrogate generator that stands in for unavailable field
data.

A Dataset keeps condition attributes in `X` (n x d) and the decision
attribute in `y` (n,). Values are plain float64; normalization is min-max
to [0, 1] with the affine parameters kept so predictions can be mapped
back to original units.
"""

from __future__ import annotations

import csv
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np


class DatasetError(ValueError):
    pass


def check_value(value, kind, minimum=None, maximum=None):
    """`value` as a finite `kind` (int or float) within [`minimum`,
    `maximum`] (None: unbounded). A boolean or other non-number, a
    non-finite float, a fraction where `kind` is int, a value outside the
    bounds, or an integer beyond the float range where `kind` is float
    raises ValueError with the problem, such as `must be >= 0, got -1`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"must be a number, got {value!r}")
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    if kind is int and int(value) != value:
        raise ValueError(f"must be an integer, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"must be <= {maximum}, got {value}")
    if minimum is not None and value < minimum:
        raise ValueError(f"must be >= {minimum}, got {value}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"must be finite, got an integer of {len(str(value))} digits") from None


def field_error(path: str, problem: str, error=ValueError) -> ValueError:
    """`error("{name} {problem}")`, the name being the field `path` without
    its list index, carrying `field` (the path, say `bins[1]`) and
    `problem` for a reader that places the value in its own document."""
    exc = error(f"{path.split('[')[0]} {problem}")
    exc.field, exc.problem = path, problem
    return exc


def check_field(path: str, value, kind, minimum=None, maximum=None, error=ValueError):
    """`check_value`, with a failure raised as `field_error(path, ...)`."""
    try:
        return check_value(value, kind, minimum, maximum)
    except ValueError as exc:
        raise field_error(path, str(exc), error) from None


def check_fields(obj, error=ValueError) -> None:
    """Check every field of `obj` that the class's `FIELDS` table,
    `{field: (kind, minimum[, maximum])}`, names, and store it as its kind.
    Kind `tuple` is one integer or a list of them, stored as a tuple; None
    passes only where the field defaults to None. The first failure raises
    `field_error` with `error`."""
    defaults = {f.name: f.default for f in fields(obj)}
    for name, (kind, *bounds) in type(obj).FIELDS.items():
        value = getattr(obj, name)
        if value is None and defaults[name] is None:
            continue
        if kind is tuple and isinstance(value, (list, tuple)):
            value = tuple(check_field(f"{name}[{i}]", v, int, *bounds, error=error) for i, v in enumerate(value))
        else:
            value = check_field(name, value, int if kind is tuple else kind, *bounds, error=error)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class SplitSpec:
    n_train: int = 600
    n_test: int = 93
    shuffle_seed: int | None = None

    FIELDS = {"n_train": (int, 1), "n_test": (int, 1), "shuffle_seed": (int, 0)}

    def __post_init__(self):
        check_fields(self, DatasetError)


@dataclass
class Dataset:
    X: np.ndarray  # (n, d) condition attributes
    y: np.ndarray  # (n,) decision attribute
    attribute_names: list[str] = field(default_factory=list)  # inputs then decision
    norm_params: list[tuple[float, float]] | None = None  # per attribute (min, max)

    def __post_init__(self):
        # A read-only C-ordered copy, as the kernels read it: `distinct_X`
        # is computed from X once.
        self.X = np.array(self.X, dtype=np.float64, order="C")
        self.X.flags.writeable = False
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2 or self.y.ndim != 1 or len(self.X) != len(self.y):
            raise DatasetError("X must be (n, d) and y (n,) with matching n")
        if not self.attribute_names:
            self.attribute_names = [f"x{i + 1}" for i in range(self.X.shape[1])] + ["y"]
        if len(self.attribute_names) != self.X.shape[1] + 1:
            raise DatasetError("attribute_names must cover all inputs plus the decision")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise DatasetError("dataset contains non-finite values")

    def __len__(self) -> int:
        return len(self.y)

    @property
    def n_inputs(self) -> int:
        return self.X.shape[1]

    @cached_property
    def distinct_X(self) -> np.ndarray:
        """The distinct rows of `X` in sorted order, `np.unique(X, axis=0)`,
        read-only. Computed once per Dataset, so every SOM trained on it
        shares one sort. `X` is a read-only copy, so a write to it raises;
        for other records build a new Dataset rather than assign to `X`,
        which would leave this cache holding the old rows."""
        uniq = np.unique(self.X, axis=0)
        uniq.flags.writeable = False
        return uniq

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(self.attribute_names)
            for row, t in zip(self.X, self.y):
                w.writerow([repr(float(v)) for v in row] + [repr(float(t))])


def read_csv(path) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The header of the UTF-8 CSV file at `path`, and an iterator over its
    non-blank rows as `(row number, cells)`, counting lines from 1 after the
    header. A file that cannot be opened, decoded or parsed, or has no header,
    or a row of another width than the header raises DatasetError naming
    `path`."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = iter(list(csv.reader(fh)))
    except OSError as exc:
        raise DatasetError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: cannot decode: {exc}") from None
    except csv.Error as exc:
        raise DatasetError(f"{path}: cannot parse: {exc}") from None
    header = next(filter(None, records), None)
    if header is None:
        raise DatasetError(f"{path}: empty file")

    def rows():
        for r, cells in enumerate(records, start=1):
            if not cells:
                continue
            if len(cells) != len(header):
                raise DatasetError(f"{path}: row {r}: expected {len(header)} cells, got {len(cells)}")
            yield r, cells

    return header, rows()


def load_csv(path, decision_column: str) -> Dataset:
    """Read a comma-separated file (one header row) into a Dataset.

    Inputs are all non-decision columns in header order; row order is
    preserved. Non-numeric or non-finite cells are reported with their
    row number (1-based, excluding the header) and column name.
    """
    header, records = read_csv(path)
    header = [h.strip() for h in header]
    if len(set(header)) < len(header):
        raise DatasetError(f"{path}: duplicate column names in header {header}")
    if decision_column not in header:
        raise DatasetError(f"unknown decision column {decision_column!r}; headers: {header}")
    if len(header) == 1:
        raise DatasetError(f"{path}: no input column besides the decision {decision_column!r}")
    dec_idx = header.index(decision_column)
    rows = []
    for r, cells in records:
        vals = []
        for name, cell in zip(header, cells):
            try:
                v = float(cell)
            except ValueError:
                raise DatasetError(f"{path}: row {r}, column {name!r}: non-numeric cell {cell!r}") from None
            if not math.isfinite(v):
                raise DatasetError(f"{path}: row {r}, column {name!r}: non-finite value {cell!r}")
            vals.append(v)
        rows.append(vals)
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    input_idx = [i for i in range(len(header)) if i != dec_idx]
    names = [header[i] for i in input_idx] + [header[dec_idx]]
    return Dataset(arr[:, input_idx], arr[:, dec_idx], names)


def min_max_normalize(ds: Dataset) -> Dataset:
    """Affinely map every attribute (inputs and decision) to [0, 1]."""
    cols = [ds.X[:, j] for j in range(ds.n_inputs)] + [ds.y]
    params = []
    normed = []
    for name, col in zip(ds.attribute_names, cols):
        lo, hi = float(col.min()), float(col.max())
        if hi <= lo:
            raise DatasetError(f"constant attribute {name!r} (min == max == {lo})")
        params.append((lo, hi))
        normed.append((col - lo) / (hi - lo))
    X = np.column_stack(normed[:-1])
    return Dataset(X, normed[-1], list(ds.attribute_names), params)


def denormalize_decision(ds: Dataset, values: np.ndarray) -> np.ndarray:
    """Map normalized decision values back to original units."""
    if ds.norm_params is None:
        return np.asarray(values, dtype=np.float64)
    lo, hi = ds.norm_params[-1]
    return np.asarray(values, dtype=np.float64) * (hi - lo) + lo


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Disjoint train/test split; contiguous without a seed, otherwise a
    deterministic seeded permutation."""
    n = len(ds)
    if spec.n_train + spec.n_test > n:
        raise DatasetError(f"split {spec.n_train}+{spec.n_test} exceeds dataset size {n}")
    if spec.shuffle_seed is None:
        idx = np.arange(n)
    else:
        idx = np.random.default_rng(spec.shuffle_seed).permutation(n)
    tr = idx[: spec.n_train]
    te = idx[spec.n_train : spec.n_train + spec.n_test]
    names = list(ds.attribute_names)
    np_ = list(ds.norm_params) if ds.norm_params is not None else None
    return (
        Dataset(ds.X[tr], ds.y[tr], names, np_),
        Dataset(ds.X[te], ds.y[te], names, list(np_) if np_ is not None else None),
    )


# The most records `gen_synthetic` makes. Its arrays take 32 bytes a record,
# 32 MB here, but a SOM of fewer than 36 neurons searches them through two
# (n, N) float64 distance matrices, 560 MB together at this size.
MAX_SYNTHETIC_N = 10**6

# `gen_synthetic`'s arguments in order, as `(kind, minimum[, maximum])`, and their CLI defaults.
SYNTHETIC_KEYS = {"n": (int, 1, MAX_SYNTHETIC_N), "noise_sd": (float, 0.0), "seed": (int, 0)}
SYNTHETIC_DEFAULTS = {"n": 693, "noise_sd": 0.05, "seed": 7}


def gen_synthetic(n: int, noise_sd: float, seed: int) -> Dataset:
    """Synthetic 3-input benchmark: x ~ U[0,1]^3,
    y = 0.5*sin(2*pi*x1)*x2 + x3^2 + N(0, noise_sd^2)."""
    n, noise_sd, seed = (check_field(name, value, *SYNTHETIC_KEYS[name], error=DatasetError)
                         for name, value in zip(SYNTHETIC_KEYS, (n, noise_sd, seed)))
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 3))
    y = 0.5 * np.sin(2.0 * np.pi * X[:, 0]) * X[:, 1] + X[:, 2] ** 2
    if noise_sd > 0:
        y = y + rng.normal(0.0, noise_sd, size=n)
    return Dataset(X, y, ["x1", "x2", "x3", "y"])
