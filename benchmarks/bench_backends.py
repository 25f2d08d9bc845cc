"""Time the SOM kernels at the shapes the benchmark workloads use, and check
their best-matching units against the compiled kernel's sequential loop.

Usage: python3 benchmarks/bench_backends.py

Shapes are records x neurons x attributes: 4500x400x3 is perfbench's
sonfis-large grid, 600x100x3 a default SONFIS step (initial_N=100), and
600x5x1 one of the 1-D scaling SOMs `rst.fit_scaling` trains. The NumPy
twin is always timed and checked, so the parity claim holds without a
build; the compiled extension is timed and checked too when it is built.
One epoch is one `assign_bmus` plus one `accumulate_by_bmu`.
"""

import importlib
import timeit

import numpy as np

SHAPES = [(4500, 400, 3), (600, 100, 3), (600, 5, 1)]
CHECK_ROWS = 300  # rows checked against the pure-Python reference per shape


def ref_assign(data, protos):
    """The compiled kernel's loop: distances summed attribute by attribute
    from 0.0, first strict minimum wins."""
    out = []
    for x in data:
        best, bestd = 0, float("inf")
        for k, p in enumerate(protos):
            d = 0.0
            for j in range(len(x)):
                diff = float(x[j]) - float(p[j])
                d += diff * diff
            if d < bestd:
                best, bestd = k, d
        out.append(best)
    return np.array(out, dtype=np.int64)


def epoch_seconds(impl, data, protos):
    """Best of 5 timings of one epoch, each averaged over enough epochs to
    last at least 0.2 s."""
    def epoch():
        impl.accumulate_by_bmu(data, impl.assign_bmus(data, protos), len(protos))

    timer = timeit.Timer(epoch)
    number, _ = timer.autorange()
    return min(timer.repeat(5, number)) / number


def main():
    impls = [importlib.import_module("sonfis._somcore_py")]
    try:
        impls.append(importlib.import_module("sonfis._somcore"))
    except ImportError:
        print("compiled extension not available; timing the NumPy twin only")

    all_match = True
    for n, m, d in SHAPES:
        rng = np.random.default_rng(0)
        data = rng.random((n, d))
        protos = rng.random((m, d))
        ref = ref_assign(data[:CHECK_ROWS], protos)
        shape = f"{n}x{m}x{d}"
        times = {}
        for impl in impls:
            match = np.array_equal(impl.assign_bmus(data, protos)[:CHECK_ROWS], ref)
            all_match &= match
            times[impl.BACKEND] = epoch_seconds(impl, data, protos)
            print(f"{shape:>10} {impl.BACKEND:>6}: {times[impl.BACKEND] * 1e3:8.3f} ms per epoch, "
                  f"BMUs match the sequential reference on {CHECK_ROWS} rows: {match}")
        if len(times) == 2:
            print(f"{shape:>10} compiled speedup: {times['numpy'] / times['cython']:.2f}x")
    if not all_match:
        raise SystemExit("BMU mismatch against the sequential reference")


if __name__ == "__main__":
    main()
