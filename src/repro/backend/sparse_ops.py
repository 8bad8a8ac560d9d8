"""Precomputed scatter plans and allocation-free sparse products.

The paper's solver does exactly one indirect-addressing pass per
stiffness application (gather element corner values, scatter-add the
element results).  The seed code paid for that scatter with a fresh
``np.bincount`` — and a fresh output array — on every call.  Here the
scatter is planned **once**: the flat destination indices are sorted
into CSR form (row = global dof, entries = positions in the element
result block), so every subsequent scatter is a single C-level CSR
matvec into a caller-owned output buffer.

Per-element material coefficients are *folded into the CSR data array*
(see :class:`ScatterPlan.fold`), which removes the separate per-element
scaling passes from the hot loop entirely: the scatter multiplies each
gathered element value by its coefficient as it accumulates.

:func:`spmv_acc` / :func:`spmv_into` wrap scipy's internal
``csr_matvec(s)`` C routines, which accumulate into a caller-provided
output vector (``scipy.sparse._sparsetools`` ships with every scipy the
package supports).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools as _st


class ScatterPlan:
    """CSR-form plan for repeated scatter-adds to a fixed index set.

    Parameters
    ----------
    idx:
        Flat destination index per source slot (``nnz`` entries, each in
        ``[0, n)``) — e.g. the global dof of every element-local dof.
    n:
        Size of the destination vector.
    """

    def __init__(self, idx: np.ndarray, n: int):
        idx = np.asarray(idx, dtype=np.int64).ravel()
        self.n = int(n)
        self.nnz = int(idx.size)
        #: width of the source slot space the CSR indices refer to;
        #: equals ``nnz`` for a full plan, and stays at the parent's
        #: width for the sub-plans produced by :meth:`split`
        self.ncols = self.nnz
        #: stable source permutation sorting slots by destination; used
        #: both as the CSR column indices and to permute folded data
        self.order = np.argsort(idx, kind="stable")
        counts = (
            np.bincount(idx, minlength=self.n)
            if self.nnz
            else np.zeros(self.n, dtype=np.int64)
        )
        itype = (
            np.int32
            if max(self.nnz, self.n) < np.iinfo(np.int32).max
            else np.int64
        )
        self.indptr = np.zeros(self.n + 1, dtype=itype)
        self.indptr[1:] = np.cumsum(counts)
        self.indices = self.order.astype(itype)

    def fold(self, coef_flat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Permute per-slot coefficients into CSR data order (so the
        scatter applies them for free)."""
        if self.order is None:
            raise ValueError("fold permutation was dropped (fixed-coef plan)")
        np.take(coef_flat, self.order, out=out, mode="clip")
        return out

    def split(self, cut: int):
        """Split the plan at source-slot ``cut`` into two sub-plans.

        ``plan_lo`` scatters only slots ``< cut`` and ``plan_hi`` the
        rest; running them in sequence over the same slot block sums
        every destination row in exactly the order of the full scatter
        (the stable sort keeps slots ascending within a row, so the low
        entries of every row are its leading entries).  This is what
        lets the distributed solver scatter its interface elements
        first (elements are ordered interface-first, so their slots are
        a prefix), ship the boundary partial sums, and overlap the
        interior scatter with the ghost exchange.

        Returns ``(plan_lo, plan_hi, mask_lo)`` where ``mask_lo`` marks
        the CSR entries (in this plan's data order) that went to
        ``plan_lo`` — use it to split a folded data array the same way.
        """
        cut = int(cut)
        if not 0 <= cut <= self.nnz:
            raise ValueError(f"cut {cut} outside [0, {self.nnz}]")
        mask_lo = self.indices < cut
        rows = np.repeat(
            np.arange(self.n, dtype=np.int64),
            np.diff(self.indptr).astype(np.int64),
        )
        plans = []
        for m in (mask_lo, ~mask_lo):
            sub = ScatterPlan.__new__(ScatterPlan)
            sub.n = self.n
            sub.nnz = int(m.sum())
            sub.ncols = self.ncols
            sub.order = None  # sub-plans never fold; data comes masked
            sub.indptr = np.zeros(self.n + 1, dtype=self.indptr.dtype)
            sub.indptr[1:] = np.cumsum(
                np.bincount(rows[m], minlength=self.n)
            )
            sub.indices = self.indices[m]
            plans.append(sub)
        return plans[0], plans[1], mask_lo

    def drop_order(self) -> None:
        """Free the int64 fold permutation once coefficients are folded
        for good (fixed-coefficient operators); the int32 ``indices``
        copy keeps serving the scatter."""
        self.order = None

    def scatter_acc(
        self, data: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """``y[row] += data * x[slot]`` over the planned slots.

        ``x`` may be ``(nnz,)`` or ``(nnz, ncomp)`` (with matching
        ``y``): a 2D block scatters all components of a slot in one
        pass — one indirect lookup per slot instead of per value.
        Allocation-free via scipy's C CSR matvec(s).
        """
        if self.nnz == 0:
            return y
        if x.ndim == 2 and x.shape[1] == 1:
            # single-component block: the 1D kernel skips the per-entry
            # inner vector loop of csr_matvecs
            _st.csr_matvec(
                self.n, self.ncols, self.indptr, self.indices, data,
                x.reshape(-1), y.reshape(-1),
            )
        elif x.ndim == 2:
            _st.csr_matvecs(
                self.n, self.ncols, x.shape[1], self.indptr,
                self.indices, data, x.reshape(-1), y.reshape(-1),
            )
        else:
            _st.csr_matvec(
                self.n, self.ncols, self.indptr, self.indices, data, x, y
            )
        return y

    def workspace_bytes(self) -> int:
        n = self.indptr.nbytes + self.indices.nbytes
        if self.order is not None:
            n += self.order.nbytes
        return n


def spmv_acc(A, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y += A @ x`` for a CSR matrix ``A``; ``x``/``y`` may be 1D or
    C-contiguous 2D (multiple right-hand sides); allocation-free."""
    M, N = A.shape
    if x.ndim == 2:
        _st.csr_matvecs(
            M, N, x.shape[1], A.indptr, A.indices, A.data,
            x.reshape(-1), y.reshape(-1),
        )
    else:
        _st.csr_matvec(M, N, A.indptr, A.indices, A.data, x, y)
    return y


def spmv_into(A, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y[:] = A @ x`` into a caller-owned buffer."""
    y.fill(0.0)
    return spmv_acc(A, x, y)
