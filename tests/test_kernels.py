"""Both kernel backends against a literal reference loop."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sonfis

BACKENDS = []
BACKENDS.append(importlib.import_module("sonfis._somcore_py"))
try:
    BACKENDS.append(importlib.import_module("sonfis._somcore"))
except ImportError:
    pass


def ref_assign(data, protos):
    out = []
    for x in data:
        best, bestd = 0, float("inf")
        for k, p in enumerate(protos):
            d = float(((x - p) ** 2).sum())
            if d < bestd:
                best, bestd = k, d
        out.append(best)
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_assign_matches_reference(impl):
    rng = np.random.default_rng(0)
    data = rng.random((200, 3))
    protos = rng.random((17, 3))
    assert np.array_equal(impl.assign_bmus(data, protos), ref_assign(data, protos))


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_tie_breaks_to_lowest_index(impl):
    data = np.array([[0.5, 0.5]])
    protos = np.array([[0.4, 0.5], [0.6, 0.5], [0.4, 0.5]])
    assert impl.assign_bmus(data, protos)[0] == 0


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_accumulate(impl):
    rng = np.random.default_rng(1)
    data = rng.random((50, 2))
    bmus = rng.integers(0, 5, 50).astype(np.int64)
    sums, counts = impl.accumulate_by_bmu(data, bmus, 5)
    for k in range(5):
        mask = bmus == k
        assert counts[k] == mask.sum()
        assert np.allclose(sums[k], data[mask].sum(axis=0))


@pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled backend not built")
def test_backends_agree():
    rng = np.random.default_rng(2)
    data = rng.random((300, 4))
    protos = rng.random((25, 4))
    a = BACKENDS[0].assign_bmus(data, protos)
    b = BACKENDS[1].assign_bmus(data, protos)
    assert np.array_equal(a, b)


def import_kernels(backend):
    """Import sonfis.kernels in a fresh interpreter with SONFIS_BACKEND set."""
    src = str(Path(sonfis.__file__).resolve().parents[1])
    env = dict(os.environ, SONFIS_BACKEND=backend, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", "import sonfis.kernels as k; print(k.BACKEND)"],
                          env=env, capture_output=True, text=True)


def test_numpy_backend_forced():
    proc = import_kernels("numpy")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "numpy"


@pytest.mark.parametrize("value", ["numpyy", "python"])
def test_unknown_backend_rejected(value):
    proc = import_kernels(value)
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr
    assert f"'cython', 'numpy' or unset, got {value!r}" in proc.stderr
