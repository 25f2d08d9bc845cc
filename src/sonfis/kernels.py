"""Every step of a batch-SOM epoch, in NumPy: nearest-neuron search,
per-neuron sums and the prototype update, shared by both SOM trainers; the
search and sums also serve k-means in `nfis` and the scaling map in `rst`.

`assign_bmus` returns, bit for bit, the BMUs of `assign_exact`: squared
distances summed one attribute at a time (`0 + diff0**2 + diff1**2 + ...`),
first (lowest) index on exact ties. Summed pairwise, as NumPy's
`.sum(axis=2)` does for d >= 8, distances round differently and can break
those ties the other way.

Large SOMs get there faster. One matrix product per row block ranks every
prototype by `||p||**2 - 2 x.p`; a row whose runner-up lies outside a
proven rounding bound of its minimum keeps that argmin, and only the rows
with a near tie are recomputed by `assign_exact`. The bound and its proof
are in `_assign_prefiltered`. Below `PREFILTER_MIN_MD` prototype elements
the fixed cost of the extra NumPy calls outweighs the saving, so small SOMs
go straight to `assign_exact`.

Callers look the kernels up as module attributes
(`kernels.assign_bmus`), so a tracer can wrap them in place.
"""

import numpy as np

BACKEND = "numpy"  # printed with every benchmark result

# m * d (prototypes times attributes) from which `assign_bmus` prefilters.
# Measured with one BLAS thread at d = 3, the benchmark data's width, median
# microseconds per call (exact loop / prefilter) over alternating rounds: on
# 600 records the two break even between m * d = 102 (187 / 197) and 108
# (196 / 192), and the prefilter is 2.4x faster at 126 and 3.8x at 144; on
# 4500 records it is 1.8x faster at 48 and 10x at 1200 (a 20 x 20 grid); on
# 93 records the exact loop wins up to 192 at least. At d = 1 the break-even
# is near 190, at d = 8 below 48.
PREFILTER_MIN_MD = 108
# Elements of one (rows, m) block of the prefilter, small enough for cache.
BLOCK_ELEMENTS = 1 << 16
# Input with a nonzero magnitude below TINY, or a squared row norm above
# HUGE**2, takes `assign_exact`: within them no product, square or sum
# overflows or underflows.
TINY = 2.0**-450
HUGE = 2.0**500
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def assign_bmus(data, protos):
    """Index of the best-matching prototype for every row of `data` (n, d)
    among `protos` (m, d), as `assign_exact` computes it."""
    if protos.shape[0] * protos.shape[1] < PREFILTER_MIN_MD:
        return assign_exact(data, protos)
    return _assign_prefiltered(data, protos)


def assign_exact(data, protos):
    """Squared Euclidean distance, summed one attribute at a time into one
    (n, m) matrix, a sequential order. np.argmin keeps the first (lowest)
    index on ties.

    Leading axes stack independent searches: `data` (..., n, d) and
    `protos` (..., m, d) give (..., n), each member equal to its own 2-D
    call. `assign_bmus` stays 2-D, so stacks call this directly."""
    d2 = data[..., :, None, 0] - protos[..., None, :, 0]
    d2 *= d2
    if data.shape[-1] > 1:
        diff = np.empty_like(d2)
        for j in range(1, data.shape[-1]):
            np.subtract(data[..., :, None, j], protos[..., None, :, j], out=diff)
            diff *= diff
            d2 += diff
    return d2.argmin(axis=-1).astype(np.int64, copy=False)


def _assign_prefiltered(data, protos):
    """`assign_exact(data, protos)` through one matrix product per block.

    Notation (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., 2002, ch. 3): u = 2**-53, gamma_k = k*u / (1 - k*u), and
    gamma_j + gamma_k + gamma_j*gamma_k <= gamma_{j+k}. For row x and
    prototype p let D = ||x - p||**2, F = ||p||**2 - 2 x.p = D - ||x||**2 and
    S = (||x|| + max_j ||p_j||)**2, so that D <= S and
    2 ||x|| ||p|| + ||p||**2 <= S.

    1. `assign_exact` computes e = fl(sum_k fl(fl(x_k - p_k)**2)) in order.
       Each term carries three roundings and then d - 1 additions of
       nonnegative numbers: |e - D| <= gamma_{d+2} D <= gamma_{d+2} S.
    2. A block computes A = [x, 1] . [-2 p, fl(||p||**2)], a dot product of
       d + 1 terms; scaling by -2 is exact. In any summation order, fused
       multiply-adds included, it errs by at most
       gamma_{d+1} (2 sum_k |x_k p_k| + fl(||p||**2)), and fl(||p||**2) by
       gamma_d ||p||**2, so |A - F| <= gamma_{2d+1} S.
    3. Let r = argmin_j A_j and c the index `assign_exact` returns, so
       e_c <= e_r. With g1 = gamma_{2d+1} and g2 = gamma_{d+2}:
       A_c <= F_c + g1 S <= e_c - ||x||**2 + (g1 + g2) S
           <= e_r - ||x||**2 + (g1 + g2) S <= A_r + 2 (g1 + g2) S,
       and 2 (g1 + g2) <= 2 gamma_{3d+3}. Rounding the threshold A_r + tau
       adds at most u |A_r + tau| <= 2u S.
    4. So tau = 4 gamma_{3d+4} S is twice the 2 gamma_{3d+4} S that steps
       1-3 need, which also covers the few roundings in computing tau. Then
       c lies in {j : A_j <= fl(A_r + tau)}. When that set is {r} alone,
       c = r. Rows with a second candidate are recomputed by
       `assign_exact`, row by row, so exact ties still go to the lowest
       index.

    The gamma bounds assume that nothing overflows or underflows. Squared
    norms <= HUGE**2 bound every partial sum by 4 HUGE**2. Nonzero
    magnitudes >= TINY keep every product and square normal: a nonzero
    difference of two doubles is a multiple of the smaller one's ulp, so its
    square is at least (TINY * 2**-52)**2 = 2**-1004. An addition with a
    subnormal result is exact; a fused one errs by at most 2**-1075, far
    inside the factor-2 margin, since S >= TINY**2 unless the row and every
    prototype are zero. Other input goes to `assign_exact` whole, NaN and
    inf included: they make a squared norm NaN or inf.
    """
    n, d = data.shape
    m = protos.shape[0]
    xn = np.einsum("ij,ij->i", data, data)
    pn = np.einsum("ij,ij->i", protos, protos)
    if not (xn.max(initial=0.0) <= HUGE**2 and pn.max() <= HUGE**2) or _has_tiny(data) or _has_tiny(protos):
        return assign_exact(data, protos)
    tau = _tie_margin(xn, pn.max(), d)
    lhs = np.empty((n, d + 1))
    lhs[:, :d] = data
    lhs[:, d] = 1.0
    rhs = np.empty((d + 1, m))
    np.multiply(protos.T, -2.0, out=rhs[:d])
    rhs[d] = pn
    # Per row: the best score, its index and the runner-up's score.
    best = np.empty(n)
    bmus = np.empty(n, dtype=np.int64)
    second = np.empty(n)
    step = max(1, BLOCK_ELEMENTS // m)
    block = np.empty((min(step, n), m))  # reused: a fresh one costs page faults
    block_rows = np.arange(len(block))
    for lo in range(0, n, step):
        a = np.matmul(lhs[lo:lo + step], rhs, out=block[:min(step, n - lo)])
        rows = block_rows[:len(a)]
        cols = a.argmin(axis=1, out=bmus[lo:lo + step])
        best[lo:lo + step] = a[rows, cols]
        a[rows, cols] = np.inf
        # The runner-up's score, read at its argmin: faster than a.min(axis=1).
        second[lo:lo + step] = a[rows, a.argmin(axis=1)]
    rows = np.flatnonzero(second <= best + tau)
    if rows.size:
        bmus[rows] = assign_exact(data[rows], protos)
    return bmus


def _tie_margin(xn, pn_max, d):
    """tau = 4 gamma_{3d+4} S per row, from the squared row norms `xn` and
    the largest squared prototype norm `pn_max`; see `_assign_prefiltered`."""
    k = 3 * d + 4
    return 4.0 * (k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)) * (np.sqrt(xn) + np.sqrt(pn_max)) ** 2


def _has_tiny(a):
    """Whether any nonzero element of `a` is smaller in magnitude than TINY."""
    a = np.abs(a)
    return bool(np.any((a < TINY) & (a > 0)))


def accumulate_by_bmu(data, bmus, m):
    """Per-neuron sum of assigned rows and assignment counts.

    np.bincount adds the records in order.
    """
    sums = np.empty((m, data.shape[1]), dtype=np.float64)
    for j in range(data.shape[1]):
        sums[:, j] = np.bincount(bmus, weights=data[:, j], minlength=m)
    counts = np.bincount(bmus, minlength=m).astype(np.float64)
    return sums, counts


def move_prototypes(protos, H, sums, counts):
    """The batch update, in place: each prototype with neighbourhood weight
    moves to `(H @ sums) / (H @ counts)`; the others stay. `protos` and
    `sums` are (..., m, d), `counts` (..., m); leading axes stack SOMs that
    share the (m, m) `H`. A stack makes one matrix-vector product per
    member, as an (m, 1) member alone does, where one (m, c) matrix product
    over the stack could round otherwise: each member rounds as it would
    alone."""
    denom = H @ counts[..., None]
    np.divide(H @ sums, denom, out=protos, where=denom > 0)
