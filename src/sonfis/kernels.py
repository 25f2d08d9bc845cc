"""Backend selection for the SOM hot kernels.

SONFIS_BACKEND chooses: `cython` requires the compiled extension, `numpy`
forces the pure-NumPy twin (used by the benchmark and by CI without a
compiler), and unset takes the compiled extension when it is built and the
NumPy twin otherwise. Any other value raises ImportError.
"""

import os

_forced = os.environ.get("SONFIS_BACKEND", "").strip().lower()

if _forced == "numpy":
    from . import _somcore_py as _impl
elif _forced == "cython":
    from . import _somcore as _impl  # type: ignore[attr-defined]
elif _forced:
    raise ImportError(f"SONFIS_BACKEND must be 'cython', 'numpy' or unset, got {_forced!r}")
else:
    try:
        from . import _somcore as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _somcore_py as _impl

BACKEND = _impl.BACKEND
assign_bmus = _impl.assign_bmus
accumulate_by_bmu = _impl.accumulate_by_bmu
