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
with a near tie are recomputed by `assign_exact`. From `LONG_ROWS`
prototypes on, the product and its row argmins run in float32, which moves
half the bytes, under a bound derived in float32; below it they run in
float64, since NumPy's float32 argmin is the slower one on short rows. The
bound and its proof, with a term for rounding the input to float32, are in
`_assign_prefiltered`. Below `PREFILTER_MIN_MD` prototype elements the
fixed cost of the extra NumPy calls outweighs the saving, so small SOMs go
straight to `assign_exact`.

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
# Prototypes m from which the prefilter ranks in float32 instead of float64.
# NumPy's float32 argmin is slower than float64 on short rows and faster on
# long ones: per 600 rows, 29 / 10 us (float32 / float64) at 36 columns,
# about even at 100 to 128, 39 / 53 us at 400. Measured with one BLAS thread
# on the searches a batch SOM makes while it trains on the benchmark's data
# (d = 3), median microseconds per epoch (float64 / float32) over 30
# alternating rounds: on 600 records 176 / 188 at m = 144, 195 / 212 at 196,
# 226 / 205 at 256 and 290 / 265 at 400; on 4500 records 988 / 1030 at 144,
# 1289 / 1234 at 196, 1463 / 1299 at 256 and 1792 / 1701 at 400, where
# float32 recomputes 1.6% of rows, most in the first epochs.
LONG_ROWS = 256
# Elements of one float64 (rows, m) block of either search, small enough for
# cache; a float32 block of the prefilter holds twice as many.
BLOCK_ELEMENTS = 1 << 16
# Input with a nonzero magnitude below TINY[w], or a squared row norm above
# HUGE[w]**2, takes `assign_exact` when the prefilter works in precision w:
# within them no conversion, product, square or sum overflows or underflows
# (see `_assign_prefiltered`).
TINY = {np.float64: 2.0**-450, np.float32: 2.0**-62}
HUGE = {np.float64: 2.0**500, np.float32: 2.0**62}


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
    call. `assign_bmus` stays 2-D, so stacks call this directly. Every
    shape is searched in blocks of `BLOCK_ELEMENTS // m` rows along axis -2:
    each row's BMU depends on that row alone, so the blocks give the BMUs
    of one pass, with (..., rows, m) matrices of about BLOCK_ELEMENTS
    elements per member instead of (..., n, m)."""
    n, step = data.shape[-2], max(1, BLOCK_ELEMENTS // protos.shape[-2])
    if n <= step:
        return _exact_pass(data, protos)
    bmus = np.empty(np.broadcast_shapes(data.shape[:-2], protos.shape[:-2]) + (n,), dtype=np.int64)
    for lo in range(0, n, step):
        bmus[..., lo:lo + step] = _exact_pass(data[..., lo:lo + step, :], protos)
    return bmus


def _exact_pass(data, protos):
    """`assign_exact` in one pass over all rows."""
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
    """`assign_exact(data, protos)` through one matrix product per block,
    in float32 from `LONG_ROWS` prototypes on and in float64 below.

    Notation (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., 2002, ch. 3): u is the unit roundoff of the working precision,
    2**-24 in float32 and 2**-53 in float64, gamma_k = k*u / (1 - k*u), and
    gamma_j + gamma_k + gamma_j*gamma_k <= gamma_{j+k}. For row x and
    prototype p let D = ||x - p||**2, F = ||p||**2 - 2 x.p = D - ||x||**2 and
    S = (||x|| + max_j ||p_j||)**2, so that D <= S and
    2 ||x|| ||p|| + ||p||**2 <= S.

    1. `assign_exact` computes e = fl(sum_k fl(fl(x_k - p_k)**2)) in float64,
       in order. Each term carries three roundings and then d - 1 additions
       of nonnegative numbers: |e - D| <= gamma_{d+2} D <= gamma_{d+2} S,
       as float64's gamma is no larger than the working precision's.
    2. A block computes A = [x', 1] . [-2 p', q'] in the working precision,
       where x', p' and q' are x, p and q = fl64(||p||**2) rounded to it once;
       scaling by -2 is exact. q errs by at most gamma_d ||p||**2. Rounding
       gives x'_k p'_k = x_k p_k (1 + theta_2) and q' = q (1 + theta_1), so
       the conversion moves the exact product by at most
       gamma_2 (2 sum_k |x_k p_k| + q); in float64 it changes nothing. The
       dot product of d + 1 terms, in any summation order, fused
       multiply-adds included, errs by at most gamma_{d+1} times the sum of
       its terms' magnitudes. Together |A - F| <= gamma_{2d+3} S.
    3. Let r = argmin_j A_j and c the index `assign_exact` returns, so
       e_c <= e_r. With g1 = gamma_{2d+3} and g2 = gamma_{d+2}:
       A_c <= F_c + g1 S <= e_c - ||x||**2 + (g1 + g2) S
           <= e_r - ||x||**2 + (g1 + g2) S <= A_r + 2 (g1 + g2) S,
       and 2 (g1 + g2) <= 2 gamma_{3d+5}. The scores are kept as float64,
       exactly, and rounding the threshold A_r + tau in float64 adds at most
       2**-53 |A_r + tau| <= 2**-52 S.
    4. So tau = 4 gamma_{3d+4} S is about twice what steps 1-3 need: in
       float32 2 (3d + 4) / (3d + 5) times, at least 1.7; in float64,
       where the conversion term is zero and g1 = gamma_{2d+1}, steps 1-3
       need 2 gamma_{3d+4} S, half of tau. The slack also covers the few
       roundings in computing tau. Then c lies in
       {j : A_j <= fl(A_r + tau)}. When that set is {r} alone, c = r. Rows
       with a second candidate are recomputed by `assign_exact`, row by
       row, so exact ties still go to the lowest index.

    The gamma bounds assume that nothing overflows or underflows, which the
    limits TINY[w] and HUGE[w] of working precision w ensure. In float64,
    squared norms <= 2**1000 bound every partial sum by 2**1002. Nonzero
    magnitudes >= 2**-450 keep every product and square normal: a nonzero
    difference of two doubles is a multiple of the smaller one's ulp, so
    its square is at least (2**-450 * 2**-52)**2 = 2**-1004. In float32,
    squared norms <= 2**124 keep every converted value and every partial
    sum below 4 * 2**124 = 2**126, under float32's 2**128, and nonzero
    magnitudes >= 2**-62 convert to normals whose products are at least
    2**-124, above float32's smallest normal 2**-126. Both limits lie
    inside float64's, so `assign_exact` is safe on what either precision
    accepts. In either precision an addition with a subnormal result is
    exact, and a fused one errs by at most half the smallest subnormal,
    far inside the margin, since S >= TINY[w]**2 unless the row and every
    prototype are zero. Other input goes to `assign_exact` whole, NaN and
    inf included: they make a squared norm NaN or inf.
    """
    n, d = data.shape
    m = protos.shape[0]
    work = np.float32 if m >= LONG_ROWS else np.float64
    xn = np.einsum("ij,ij->i", data, data)
    pn = np.einsum("ij,ij->i", protos, protos)
    huge2 = HUGE[work] ** 2
    if not (xn.max(initial=0.0) <= huge2 and pn.max() <= huge2) or _has_tiny(data, work) or _has_tiny(protos, work):
        return assign_exact(data, protos)
    tau = _tie_margin(xn, pn.max(), d, work)
    lhs = np.empty((n, d + 1), work)
    lhs[:, :d] = data
    lhs[:, d] = 1.0
    rhs = np.empty((d + 1, m), work)
    np.multiply(protos.T, -2.0, out=rhs[:d])
    rhs[d] = pn
    # Per row: the best score, its index and the runner-up's score.
    best = np.empty(n)
    bmus = np.empty(n, dtype=np.int64)
    second = np.empty(n)
    # The bytes of BLOCK_ELEMENTS float64s, in either precision.
    step = max(1, BLOCK_ELEMENTS * 8 // lhs.itemsize // m)
    block = np.empty((min(step, n), m), work)  # reused: a fresh one costs page faults
    block_rows = np.arange(len(block))
    for lo in range(0, n, step):
        a = np.matmul(lhs[lo:lo + step], rhs, out=block[:min(step, n - lo)])
        rows = block_rows[:len(a)]
        cols = a.argmin(axis=1, out=bmus[lo:lo + step])
        best[lo:lo + step] = a[rows, cols]
        a[rows, cols] = np.inf
        # The runner-up's score, read at its argmin: faster than a.min(axis=1).
        second[lo:lo + step] = a[rows, a.argmin(axis=1)]
    a = block = None  # freed before `assign_exact` allocates its own blocks
    rows = np.flatnonzero(second <= best + tau)
    if rows.size:
        bmus[rows] = assign_exact(data[rows], protos)
    return bmus


def _tie_margin(xn, pn_max, d, work=np.float64):
    """tau = 4 gamma_{3d+4}(u) S per row, from the squared row norms `xn`
    and the largest squared prototype norm `pn_max`, with u the unit
    roundoff of the working precision `work`; see `_assign_prefiltered`."""
    k, u = 3 * d + 4, float(np.finfo(work).eps) / 2
    return 4.0 * (k * u / (1.0 - k * u)) * (np.sqrt(xn) + np.sqrt(pn_max)) ** 2


def _has_tiny(a, work):
    """Whether any nonzero element of `a` is smaller in magnitude than
    TINY[work]."""
    a = np.abs(a)
    return bool(np.any((a < TINY[work]) & (a > 0)))


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
