"""The compute backend of the time-stepping hot paths.

Every elastic stiffness application in the package — the 3D elastic
operator, the elastic inversion, the tetrahedral baseline, the
per-rank operators of the distributed solver — is routed through a
*kernel* object built by the one backend,
:class:`~repro.backend.numpy_backend.NumpyBackend`: BLAS block products
plus a coefficient-folded CSR scatter, all writing into preallocated
workspace.  The regular-grid scalar solver assembles its stiffness
instead and applies it as one :class:`CSR` product.

:func:`get_backend` builds it on first use and returns the same object
ever after.  That first construction runs numpy's OpenBLAS on one
thread, process-wide, unless the environment sets a thread count
(:mod:`repro.backend.blas_threads`).
"""

from __future__ import annotations

import functools

from repro.backend.numpy_backend import NumpyBackend
from repro.backend.sparse_ops import CSR, ScatterPlan, spmv_acc, spmv_into

__all__ = ["get_backend", "CSR", "ScatterPlan", "spmv_acc", "spmv_into"]


@functools.cache
def get_backend() -> NumpyBackend:
    """The backend every kernel is built by (constructed on first call)."""
    return NumpyBackend()
