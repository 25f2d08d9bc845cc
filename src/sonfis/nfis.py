"""Second granulation, fuzzy branch: first-order Takagi-Sugeno system with
Gaussian premises and linear consequents, trained by the classic hybrid
scheme (exact least squares for the consequents, gradient descent for the
premises) on the crisp granules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .dataset import Dataset, check_fields

WIDTH_FLOOR_INIT = 0.1
WIDTH_FLOOR_TRAIN = 0.01
KMEANS_ITERS = 100


@dataclass(frozen=True)
class NfisTrainParams:
    epochs: int = 10
    premise_learning_rate: float = 0.05

    FIELDS = {"epochs": (int, 1), "premise_learning_rate": (float, None)}

    def __post_init__(self):
        check_fields(self)
        if self.premise_learning_rate <= 0:
            raise ValueError("premise_learning_rate must be > 0")


@dataclass
class FuzzyRuleBase:
    centers: np.ndarray  # (R, d)
    widths: np.ndarray  # (R, d), strictly positive
    coeffs: np.ndarray  # (R, d + 1): linear part then intercept

    @property
    def n_rules(self) -> int:
        return len(self.centers)

    def to_dict(self) -> dict:
        rules = [
            {
                "centers": list(map(float, c)),
                "widths": list(map(float, s)),
                "consequent": list(map(float, a)),
            }
            for c, s, a in zip(self.centers, self.widths, self.coeffs)
        ]
        return {"n_rules": self.n_rules, "rules": rules}


def _kmeans(points: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """At most KMEANS_ITERS Lloyd iterations, each a batch-SOM epoch with H = I:
    nearest-center labels, then each center with members moves to their mean.
    Before the means, each empty cluster in index order takes the point
    farthest from its assigned center (the first on ties). Returns (centers, labels)."""
    rng = np.random.default_rng(seed)
    centers = points[rng.choice(len(points), size=k, replace=False)].copy()
    labels = np.zeros(len(points), dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        new_labels = kernels.assign_bmus(points, centers)
        sums, counts = kernels.accumulate_by_bmu(points, new_labels, k)
        if not counts.all():
            far_d2 = ((points - centers[new_labels]) ** 2).sum(axis=1)
            for j in range(k):
                if counts[j] == 0:
                    far = int(np.argmax(far_d2))
                    counts[new_labels[far]] -= 1
                    new_labels[far], counts[j], far_d2[far] = j, 1, 0.0
            sums, counts = kernels.accumulate_by_bmu(points, new_labels, k)
        np.divide(sums, counts[:, None], out=centers, where=counts[:, None] > 0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels


def init_rulebase(granules: Dataset, n_rules: int, seed: int) -> FuzzyRuleBase:
    """Place rule centers by seeded k-means over the granule inputs; widths
    are the per-dimension std of each cluster, floored at 0.1 (so a cluster
    of 0 or 1 members takes the floor); consequents start at zero."""
    if len(granules) < n_rules:
        raise ValueError(f"{len(granules)} granules cannot seed {n_rules} rules")
    X = granules.X
    centers, labels = _kmeans(X, n_rules, seed)
    sq_dev, counts = kernels.accumulate_by_bmu((X - centers[labels]) ** 2, labels, n_rules)
    widths = np.maximum(np.sqrt(sq_dev / np.maximum(counts, 1.0)[:, None]), WIDTH_FLOOR_INIT)
    return FuzzyRuleBase(centers, widths, np.zeros((n_rules, X.shape[1] + 1)))


def _firing(fis: FuzzyRuleBase, X: np.ndarray) -> np.ndarray:
    """Rule firing strengths, (n, R); product of Gaussian memberships."""
    z = (X[:, None, :] - fis.centers[None, :, :]) / fis.widths[None, :, :]
    return np.exp(-0.5 * (z**2).sum(axis=2))


def _consequent_values(fis: FuzzyRuleBase, X: np.ndarray) -> np.ndarray:
    """Per-rule linear consequent outputs, (n, R)."""
    return X @ fis.coeffs[:, :-1].T + fis.coeffs[:, -1]


def _defuzzify(w: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted average of the rule outputs `f` under the firing strengths
    `w`, both (n, R). Returns the output `y`, the total firing `sw` and the
    mask `ok = sw > 0`, all (n,); `y` is NaN where the total firing
    underflows to zero, and callers replace or drop those rows."""
    sw = w.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        y = (w * f).sum(axis=1) / sw
    return y, sw, sw > 0


def predict(fis: FuzzyRuleBase, X: np.ndarray) -> np.ndarray:
    """Weighted-average defuzzification over all rules; rows whose total
    firing strength underflows to zero fall back to the consequent of the
    rule with the nearest center (ties to the lower rule index)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    f = _consequent_values(fis, X)
    out, _, ok = _defuzzify(_firing(fis, X), f)
    if not ok.all():
        out[~ok] = f[~ok, kernels.assign_bmus(X[~ok], fis.centers)]
    return out


def _solve_consequents(fis: FuzzyRuleBase, X: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Least-squares consequents on the weight-normalized design, given the
    firing strengths `w = _firing(fis, X)`. Rows with underflowed firing use
    a one-hot weight on the nearest-center rule, the fallback of `predict`.
    Minimum-norm solution when rank-deficient."""
    n, d = X.shape
    R = fis.n_rules
    sw = w.sum(axis=1)
    ok = sw > 0
    # A row with zero total firing is all zeros, so dividing it by 1 keeps it so.
    wn = w / np.where(ok, sw, 1.0)[:, None]
    if not ok.all():
        wn[np.nonzero(~ok)[0], kernels.assign_bmus(X[~ok], fis.centers)] = 1.0
    X1 = np.empty((n, d + 1))
    X1[:, :d] = X
    X1[:, d] = 1.0
    design = (wn[:, :, None] * X1[:, None, :]).reshape(n, R * (d + 1))
    sol, *_ = np.linalg.lstsq(design, t, rcond=None)
    return sol.reshape(R, d + 1)


def _premise_gradients(fis: FuzzyRuleBase, X: np.ndarray, t: np.ndarray,
                       w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of mean squared error w.r.t. centers and widths,
    given the firing strengths `w = _firing(fis, X)`. Rows with underflowed
    total firing contribute nothing."""
    n = len(X)
    f = _consequent_values(fis, X)
    y, sw, ok = _defuzzify(w, f)
    if not ok.any():
        return np.zeros_like(fis.centers), np.zeros_like(fis.widths)
    if not ok.all():
        X, w, f, sw, y, t = X[ok], w[ok], f[ok], sw[ok], y[ok], t[ok]
    r = y - t
    # dE/dw_i = (2/n) * r * (f_i - y) / sw  (n = full sample count)
    dE_dw = (2.0 / n) * r[:, None] * (f - y[:, None]) / sw[:, None]
    diff = X[:, None, :] - fis.centers[None, :, :]
    common = (dE_dw * w)[:, :, None]
    gc = (common * diff / fis.widths[None, :, :] ** 2).sum(axis=0)
    gs = (common * diff**2 / fis.widths[None, :, :] ** 3).sum(axis=0)
    return gc, gs


def train_hybrid(fis: FuzzyRuleBase, granules: Dataset, params: NfisTrainParams) -> FuzzyRuleBase:
    """Per epoch: exact least squares for the consequents, then one gradient
    step on the premise centers and widths (widths re-floored at 0.01). Both
    use the epoch's one set of firing strengths, since the consequents do
    not enter them. Returns a new rule base; the input is untouched. An
    overflowing or invalid operation, such as a premise step so large that
    the next epoch's firing strengths overflow, raises FloatingPointError
    rather than hand non-finite values to the least-squares solver."""
    if len(granules) == 0:
        raise ValueError("empty granule set")
    X, t = granules.X, granules.y
    out = FuzzyRuleBase(fis.centers.copy(), fis.widths.copy(), fis.coeffs.copy())
    lr = params.premise_learning_rate
    with np.errstate(over="raise", invalid="raise"):
        for _ in range(params.epochs):
            w = _firing(out, X)
            out.coeffs = _solve_consequents(out, X, t, w)
            gc, gs = _premise_gradients(out, X, t, w)
            out.centers = out.centers - lr * gc
            out.widths = np.maximum(out.widths - lr * gs, WIDTH_FLOOR_TRAIN)
    return out


def _rms(pred: np.ndarray, y: np.ndarray) -> float:
    if len(y) == 0:
        raise ValueError("empty test set")
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def rmse(fis: FuzzyRuleBase, test: Dataset, lo: float = -np.inf, hi: float = np.inf) -> float:
    """Root mean square error over the test set of the system output
    clipped to [lo, hi] (unclipped by default)."""
    return _rms(np.clip(predict(fis, test.X), lo, hi), test.y)


def rmse_bound(test: Dataset, lo: float, hi: float) -> float:
    """The largest `rmse(fis, test, lo, hi)` of any `fis`, `inf` where a square overflows:
    rounding is monotone, so each decision's farther end of [lo, hi] maximizes |fl(pred - y)|,
    and the squares, the pairwise mean (same length, same order) and sqrt keep that order."""
    with np.errstate(over="ignore"):
        return _rms(np.where(test.y - lo < hi - test.y, hi, lo), test.y)
