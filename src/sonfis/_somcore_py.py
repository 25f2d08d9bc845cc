"""Pure-NumPy fallback for the batch-SOM hot kernels.

Mirrors `sonfis._somcore` (the Cython extension) function for function so
`sonfis.kernels` can swap them freely. Both functions add in the compiled
kernel's order, so the two backends return bit-identical results.
"""

import numpy as np

BACKEND = "numpy"


def assign_bmus(data, protos):
    """Index of the best-matching prototype for every row of `data`.

    Squared Euclidean distance, summed one attribute at a time into one
    (n, m) matrix: `0 + diff0**2 + diff1**2 + ...`, the compiled kernel's
    order. A pairwise `.sum(axis=2)` would round differently for d >= 8 and
    could break exact ties the other way. np.argmin keeps the first
    (lowest) index on ties, matching the compiled kernel.
    """
    d2 = np.subtract.outer(data[:, 0], protos[:, 0])
    d2 *= d2
    diff = np.empty_like(d2)
    for j in range(1, data.shape[1]):
        np.subtract.outer(data[:, j], protos[:, j], out=diff)
        diff *= diff
        d2 += diff
    return d2.argmin(axis=1).astype(np.int64)


def accumulate_by_bmu(data, bmus, m):
    """Per-neuron sum of assigned rows and assignment counts.

    np.bincount adds the records in order, as the compiled kernel does.
    """
    sums = np.empty((m, data.shape[1]), dtype=np.float64)
    for j in range(data.shape[1]):
        sums[:, j] = np.bincount(bmus, weights=data[:, j], minlength=m)
    counts = np.bincount(bmus, minlength=m).astype(np.float64)
    return sums, counts
