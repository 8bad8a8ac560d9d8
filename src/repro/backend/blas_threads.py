"""The library, not its caller, owns its BLAS threading.

The element kernels are the only BLAS callers on a hot path, and their
product ``(nelem, 24) . (24, 48)`` is tall and skinny: a second
OpenBLAS thread buys at most 1.4x at 16k rows and costs a thread
wake-up whenever it loses — a flat 8 ms per call on a 2-vCPU host,
50x the single-threaded 2,048-element GEMM — and every worker of a
``ProcWorld(n)`` would bring its own thread team to the same cores.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

#: an explicit setting of any of these wins over the library's default
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _bundled_openblas():
    """``ctypes`` handle on the scipy-openblas that numpy's wheel
    bundles, thread getter and setter prototyped; ``None`` when numpy
    links another BLAS (library or symbols absent)."""
    libs = glob.glob(
        os.path.join(
            os.path.dirname(np.__file__), os.pardir, "numpy.libs",
            "libscipy_openblas64_*.so",
        )
    )
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(libs[0])
        lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        lib.scipy_openblas_set_num_threads64_.restype = None
        lib.scipy_openblas_get_num_threads64_.argtypes = []
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    except (OSError, AttributeError):
        return None
    return lib


def single_thread_blas() -> None:
    """Run numpy's bundled OpenBLAS on one thread unless the
    environment says otherwise.

    **Process-wide**: OpenBLAS has one thread count per process, so
    this also single-threads the caller's own numpy BLAS calls made
    after a numpy backend (or a ``ProcWorld`` worker) exists.  Setting
    any of :data:`THREAD_VARS` before numpy loads is the knob that
    overrides it — then this function does nothing, as it does when the
    bundled library or its symbols are not there.
    """
    if any(var in os.environ for var in THREAD_VARS):
        return
    lib = _bundled_openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)
