"""First (crisp) granulation: rectangular batch self-organizing map.

Batch training: every epoch assigns each record to its best-matching unit
(Euclidean, ties to the lowest neuron index) and then moves every prototype
to the neighborhood-weighted mean of the assigned records. The neighborhood
is Gaussian over Chebyshev grid distance, with the radius decaying linearly
from `initial_radius` to `final_radius` across epochs. Being batch, the
result is order-independent and fully determined by the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .dataset import Dataset, check_fields

# The most neurons one SOM may have: a 64 x 64 grid. Training writes every
# epoch's neighbourhood into one (N, N) float64 buffer, 128 MiB at this size.
MAX_NEURONS = 4096


@dataclass(frozen=True)
class SomParams:
    epochs: int = 10
    initial_radius: float | None = None  # None: max(n1, n2) / 2
    final_radius: float = 0.5

    FIELDS = {"epochs": (int, 1), "initial_radius": (float, 0.0), "final_radius": (float, None)}

    def __post_init__(self):
        check_fields(self)
        if self.final_radius <= 0:
            raise ValueError("final_radius must be > 0")
        if self.initial_radius is not None and self.initial_radius < self.final_radius:
            raise ValueError("initial_radius must be >= final_radius")


@dataclass
class SomGrid:
    n1: int
    n2: int
    prototypes: np.ndarray  # (n1*n2, d)

    @property
    def n_neurons(self) -> int:
        return self.n1 * self.n2


def grid_dims(N: int) -> tuple[int, int]:
    """Most-square factorization n1*n2 = N with n1 <= n2."""
    if N < 1:
        raise ValueError("N must be >= 1")
    for n1 in range(int(np.sqrt(N)), 0, -1):
        if N % n1 == 0:
            return n1, N // n1
    raise AssertionError("unreachable")


def _initial_prototypes(uniq: np.ndarray, N: int, seed: int) -> np.ndarray:
    """N initial prototypes sampled from the sorted distinct records `uniq`
    (`np.unique(data, axis=0)`), without replacement when there are enough:
    identical initial prototypes cannot separate under the batch update.
    Sorting keeps initialization independent of record order."""
    rng = np.random.default_rng(seed)
    if N <= len(uniq):
        return uniq[rng.choice(len(uniq), size=N, replace=False)]
    return uniq[rng.integers(0, len(uniq), size=N)]


def _neighbourhoods(n1: int, n2: int, params: SomParams):
    """Each epoch's (N, N) neighbourhood matrix, in epoch order. Every epoch
    is written into the same buffer, so a matrix is valid only until the
    next one is drawn.

    The Gaussian is taken once per grid distance k, into the table g. Since
    g is non-increasing in k, min(g[|row gap|], g[|column gap|]) is g at the
    Chebyshev distance max(|row gap|, |column gap|): the same double as the
    Gaussian of that distance computed directly."""
    K = max(n1, n2)
    neg_ksq = -(np.arange(K, dtype=np.float64) ** 2)
    # buf[i, j, p, q] is H[i * n2 + j, p * n2 + q], the weight between grid
    # cells (i, j) and (p, q); dr and dc index it by |i - p| and |j - q|.
    dr = np.abs(np.subtract.outer(np.arange(n1), np.arange(n1)))[:, None, :, None]
    dc = np.abs(np.subtract.outer(np.arange(n2), np.arange(n2)))[None, :, None, :]
    buf = np.empty((n1, n2, n1, n2))
    H = buf.reshape(n1 * n2, n1 * n2)
    # At a `2 * radius**2` no larger than this (a radius that rounds to 0,
    # or whose square underflows) the Gaussian is its limit, the identity:
    # a weight off the diagonal, exp(-c**2 / (2 * radius**2)) with c >= 1,
    # is at most exp(-2**1000 / max(c)**2), which is 0 in float64. Computing
    # it would warn of 0 / 0 on the diagonal or of an overflowing quotient.
    vanishing = (K - 1) ** 2 * 2.0**-1000
    r0 = params.initial_radius if params.initial_radius is not None else K / 2.0
    r0 = max(r0, params.final_radius)
    for epoch in range(params.epochs):
        frac = epoch / (params.epochs - 1) if params.epochs > 1 else 0.0
        radius = r0 + (params.final_radius - r0) * frac
        try:
            denom = 2.0 * radius**2
        except OverflowError:  # radius above about 1.3e154: every weight is exp(-0.0) = 1
            denom = np.inf
        if denom <= vanishing:
            yield np.eye(n1 * n2)
            continue
        g = np.exp(neg_ksq / denom)
        np.minimum(g[dr], g[dc], out=buf)
        yield H


def train_som(train: Dataset, dims: tuple[int, int], params: SomParams, seed: int) -> SomGrid:
    (grid,) = train_som_stack(train, dims, params, [seed])
    return grid


def train_som_stack(train: Dataset, dims: tuple[int, int], params: SomParams, seeds) -> list[SomGrid]:
    """One SOM of `dims` on `train` per entry of `seeds`, all trained in
    lock-step: each epoch draws one neighbourhood matrix, which depends on
    the grid and the epoch alone, and moves the (k, N, d) prototype stack
    with one `kernels.move_prototypes`. Each member searches and sums the
    records on its own, so member i equals, bit for bit, the SOM of
    `train_som` with `seeds[i]`; the stack holds prototypes, sums and
    counts, never a copy of the records per member."""
    if len(train) == 0:
        raise ValueError("cannot train a SOM on an empty dataset")
    n1, n2 = dims
    N = n1 * n2
    protos = np.stack([_initial_prototypes(train.distinct_X, N, seed) for seed in seeds])
    sums, counts = np.empty_like(protos), np.empty(protos.shape[:2])
    members = list(zip(protos, sums, counts))  # views, made once
    for H in _neighbourhoods(n1, n2, params):
        for member, member_sums, member_counts in members:
            bmus = kernels.assign_bmus(train.X, member)
            member_sums[...], member_counts[...] = kernels.accumulate_by_bmu(train.X, bmus, N)
        kernels.move_prototypes(protos, H, sums, counts)
    return [SomGrid(n1, n2, member) for member in protos]


def train_column_soms(columns, units: int, params: SomParams, seeds) -> np.ndarray:
    """One 1-D SOM of dims (1, `units`) per 1-D array in `columns`, which
    may differ in length, all trained together; column j seeded by
    `seeds[j]`. Returns the (c, units) prototypes: row j equals, bit for
    bit, the prototypes of `train_som` on column j alone."""
    if any(len(col) == 0 for col in columns):
        raise ValueError("cannot train a SOM on an empty dataset")
    c = len(columns)
    protos = np.stack([_initial_prototypes(np.unique(col)[:, None], units, seed)
                       for col, seed in zip(columns, seeds)])  # (c, units, 1)
    values = np.concatenate(columns).astype(np.float64, copy=False)[:, None]  # (L, 1)
    owner = np.repeat(np.arange(c), [len(col) for col in columns])
    offsets = owner * units
    for H in _neighbourhoods(1, units, params):
        # Each value is a stack member searched among its own SOM's units.
        # Slot owner*units + bmu sums its records in record order, as
        # train_som does for one column.
        slots = kernels.assign_exact(values[:, None], np.take(protos, owner, axis=0))[:, 0] + offsets
        sums, counts = kernels.accumulate_by_bmu(values, slots, c * units)
        kernels.move_prototypes(protos, H, sums.reshape(c, units, 1), counts.reshape(c, units))
    return protos[:, :, 0]


def quantization_error(grid: SomGrid, data: Dataset) -> float:
    """Mean Euclidean distance from each record to its BMU prototype."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    bmus = kernels.assign_bmus(data.X, np.ascontiguousarray(grid.prototypes))
    return float(np.linalg.norm(data.X - grid.prototypes[bmus], axis=1).mean())


def extract_granules(grid: SomGrid, train: Dataset) -> Dataset:
    """The granules as a data table for the second layer: one row per live
    neuron, in neuron order, whose inputs are its prototype and whose
    decision is the mean decision of the records whose BMU it is. Dead
    neurons are dropped."""
    bmus = kernels.assign_bmus(train.X, np.ascontiguousarray(grid.prototypes))
    dec_sums, hits = kernels.accumulate_by_bmu(train.y.reshape(-1, 1), bmus, grid.n_neurons)
    live = hits > 0
    return Dataset(grid.prototypes[live], dec_sums[live, 0] / hits[live], list(train.attribute_names))
