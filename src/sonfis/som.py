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

# The most neurons one SOM may have: a 64 x 64 grid. Training builds (N, N)
# float64 Chebyshev and neighbourhood matrices, 128 MiB each at this size,
# plus temporaries of the same shape.
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


@dataclass
class GranuleSet:
    inputs: np.ndarray  # (m, d) live prototype vectors
    decisions: np.ndarray  # (m,) mean decision of assigned records
    support: np.ndarray  # (m,) assigned-record counts, all >= 1

    def __len__(self) -> int:
        return len(self.decisions)


def grid_dims(N: int) -> tuple[int, int]:
    """Most-square factorization n1*n2 = N with n1 <= n2."""
    if N < 1:
        raise ValueError("N must be >= 1")
    for n1 in range(int(np.sqrt(N)), 0, -1):
        if N % n1 == 0:
            return n1, N // n1
    raise AssertionError("unreachable")


def _grid_chebyshev(n1: int, n2: int) -> np.ndarray:
    """Pairwise Chebyshev distance between grid positions, (N, N)."""
    rows, cols = np.divmod(np.arange(n1 * n2), n2)
    dr = np.abs(rows[:, None] - rows[None, :])
    dc = np.abs(cols[:, None] - cols[None, :])
    return np.maximum(dr, dc).astype(np.float64)


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
    """Each epoch's (N, N) neighbourhood matrix, in epoch order."""
    cheb = _grid_chebyshev(n1, n2)
    r0 = params.initial_radius if params.initial_radius is not None else max(n1, n2) / 2.0
    r0 = max(r0, params.final_radius)
    for epoch in range(params.epochs):
        frac = epoch / (params.epochs - 1) if params.epochs > 1 else 0.0
        radius = r0 + (params.final_radius - r0) * frac
        yield np.exp(-(cheb**2) / (2.0 * radius**2))


def train_som(train: Dataset, dims: tuple[int, int], params: SomParams, seed: int) -> SomGrid:
    if len(train) == 0:
        raise ValueError("cannot train a SOM on an empty dataset")
    n1, n2 = dims
    N = n1 * n2
    data = np.ascontiguousarray(train.X, dtype=np.float64)
    protos = _initial_prototypes(train.distinct_X, N, seed)
    for H in _neighbourhoods(n1, n2, params):
        bmus = kernels.assign_bmus(data, protos)
        sums, counts = kernels.accumulate_by_bmu(data, bmus, N)
        kernels.move_prototypes(protos, H, sums, counts)
    return SomGrid(n1, n2, protos)


def train_column_soms(data: np.ndarray, units: int, params: SomParams, seeds) -> np.ndarray:
    """One 1-D SOM of dims (1, `units`) per column of `data` (n, c), all
    trained together; column j seeded by `seeds[j]`. Returns the (c, units)
    prototypes: row j equals, bit for bit, the prototypes of `train_som`
    on column j alone."""
    n, c = data.shape
    if n == 0:
        raise ValueError("cannot train a SOM on an empty dataset")
    cols = np.ascontiguousarray(data.T, dtype=np.float64)  # (c, n)
    protos = np.stack([_initial_prototypes(np.unique(col[:, None], axis=0), units, seed)
                       for col, seed in zip(cols, seeds)])  # (c, units, 1)
    offsets = np.arange(c)[:, None] * units
    values = cols.reshape(c * n, 1)
    for H in _neighbourhoods(1, units, params):
        # Slot j*units + bmu over the values column by column: each slot sums
        # its records in record order, as train_som does for one column.
        slots = (kernels.assign_exact(cols[:, :, None], protos) + offsets).ravel()
        sums, counts = kernels.accumulate_by_bmu(values, slots, c * units)
        kernels.move_prototypes(protos, H, sums.reshape(c, units, 1), counts.reshape(c, units))
    return protos[:, :, 0]


def quantization_error(grid: SomGrid, data: Dataset) -> float:
    """Mean Euclidean distance from each record to its BMU prototype."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    X = np.ascontiguousarray(data.X, dtype=np.float64)
    bmus = kernels.assign_bmus(X, np.ascontiguousarray(grid.prototypes))
    return float(np.linalg.norm(X - grid.prototypes[bmus], axis=1).mean())


def extract_granules(grid: SomGrid, train: Dataset) -> GranuleSet:
    """One granule per live neuron: prototype vector plus the mean decision
    of the records whose BMU it is. Dead neurons are dropped."""
    X = np.ascontiguousarray(train.X, dtype=np.float64)
    bmus = kernels.assign_bmus(X, np.ascontiguousarray(grid.prototypes))
    dec_sums, hits = kernels.accumulate_by_bmu(train.y.reshape(-1, 1), bmus, grid.n_neurons)
    live = hits > 0
    return GranuleSet(
        inputs=grid.prototypes[live].copy(),
        decisions=dec_sums[live, 0] / hits[live],
        support=hits[live].astype(np.int64),
    )
