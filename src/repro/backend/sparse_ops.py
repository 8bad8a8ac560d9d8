"""Precomputed scatter plans and allocation-free sparse products.

The paper's solver does exactly one indirect-addressing pass per
stiffness application (gather element corner values, scatter-add the
element results).  The seed code paid for that scatter with a fresh
``np.bincount`` — and a fresh output array — on every call.  Here the
scatter is planned **once**: the flat destination indices are sorted
into CSR form (row = destination, entries = positions in the element
result block), so every subsequent scatter is a C-level CSR matvec into
a caller-owned output buffer.

A plan may be cut into blocks of source slots (the element kernel cuts
it at its element blocks).  Each block is a CSR matrix of its own over
the window of rows it touches, and its entries are a contiguous slice
of the plan's, so one folded data array serves every block and a block
can be scattered on its own, right after its products are computed.

Per-element material coefficients are *folded into the CSR data array*
(see :class:`ScatterPlan.fold`), which removes the separate per-element
scaling passes from the hot loop entirely: the scatter multiplies each
gathered element value by its coefficient as it accumulates.

:func:`spmv_acc` / :func:`spmv_into` and :meth:`CSR.acc` wrap scipy's
internal ``csr_matvec(s)`` C routines, which accumulate into a
caller-provided output vector (``scipy.sparse._sparsetools`` ships with
every scipy the package supports).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.sparse import _sparsetools as _st


def _csr_acc(nrows, ncols, indptr, indices, data, x, y):
    """``y += A x`` for the CSR arrays of an ``(nrows, ncols)`` matrix;
    a 2D ``x`` / ``y`` is a block of column vectors, each column bit for
    bit the 1D product (a single column takes the 1D kernel, which
    skips the per-entry inner vector loop of ``csr_matvecs``)."""
    if x.ndim == 2 and x.shape[1] != 1:
        _st.csr_matvecs(
            nrows, ncols, x.shape[1], indptr, indices, data, x, y
        )
    else:
        _st.csr_matvec(nrows, ncols, indptr, indices, data, x, y)
    return y


class CSR(NamedTuple):
    """A CSR matrix as its bare arrays — ``len(indptr) - 1`` rows,
    ``ncols`` columns — applied without building a scipy object."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    ncols: int

    @property
    def nnz(self) -> int:
        return len(self.data)

    def acc(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``y += A x``, allocation-free; ``x`` is ``(ncols,)`` or a
        C-contiguous ``(ncols, B)`` block, ``y`` likewise."""
        return _csr_acc(
            len(self.indptr) - 1, self.ncols, self.indptr, self.indices,
            self.data, x, y,
        )


class ScatterPlan:
    """CSR-form plan for repeated scatter-adds to a fixed index set,
    cut into blocks of source slots.

    Parameters
    ----------
    idx:
        Flat destination index per source slot (``nnz`` entries, each in
        ``[0, n)``) — e.g. the node of every (element, matrix, corner)
        slot.
    n:
        Size of the destination vector.
    cuts:
        Source-slot positions at which a new block starts (e.g. element
        boundaries times slots per element); none makes one block.

    The CSR entries are **block-major**: block ``j`` owns entries (and
    slots) ``[s0, s1)``, sorted by destination within the block, so a
    folded data array is one array whose slice ``[s0, s1)`` is the
    block's data.  Each block has its own ``indptr`` over the window of
    rows ``[r0, r1)`` it touches, so applying a block walks only that
    window.  Within a block a row's entries keep ascending slot order,
    and the blocks run in slot order, so a row accumulates its terms in
    the same sequence as one unblocked plan, bit for bit.
    """

    def __init__(self, idx: np.ndarray, n: int, cuts=()):
        idx = np.asarray(idx, dtype=np.int64).ravel()
        self.n = int(n)
        self.nnz = int(idx.size)
        itype = (
            np.int32
            if max(self.nnz, self.n) < np.iinfo(np.int32).max
            else np.int64
        )
        #: ``(s0, s1, r0, r1, p0)`` per block: its slots, its row window,
        #: and where the window's row pointers start in ``indptr``
        self.blocks = []
        #: block-local source slot of every entry, block-major
        self.indices = np.empty(self.nnz, dtype=itype)
        # one array each, not one per block: many small long-lived
        # arrays fragment the heap and hold freed setup memory resident
        indptrs, p0 = [np.zeros(0, dtype=itype)], 0
        bounds = sorted({0, self.nnz, *(int(c) for c in cuts)})
        for s0, s1 in zip(bounds[:-1], bounds[1:]):
            sub = idx[s0:s1]
            r0, r1 = int(sub.min()), int(sub.max()) + 1
            indptr = np.zeros(r1 - r0 + 1, dtype=itype)
            np.cumsum(np.bincount(sub - r0, minlength=r1 - r0), out=indptr[1:])
            indptrs.append(indptr)
            self.indices[s0:s1] = np.argsort(sub, kind="stable")
            self.blocks.append((s0, s1, r0, r1, p0))
            p0 += len(indptr)
        #: every block's window row pointers, block after block
        self.indptr = np.concatenate(indptrs)

    def fold(self, coef_flat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Permute per-slot coefficients into CSR data order (so the
        scatter applies them for free)."""
        for s0, s1, *_ in self.blocks:
            np.take(
                coef_flat[s0:s1], self.indices[s0:s1], out=out[s0:s1],
                mode="clip",
            )
        return out

    def block_acc(
        self, j: int, data: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> None:
        """Block ``j``: ``y[row] += data * x[slot - s0]`` over its
        slots.  ``data`` is the whole folded array, ``x`` the block's
        own ``(s1 - s0,)`` or ``(s1 - s0, ncomp)`` values and ``y`` the
        whole ``(n,)`` or ``(n, ncomp)`` output; only the window
        ``y[r0:r1]`` is touched."""
        s0, s1, r0, r1, p0 = self.blocks[j]
        _csr_acc(
            r1 - r0, s1 - s0, self.indptr[p0 : p0 + r1 - r0 + 1],
            self.indices[s0:s1], data[s0:s1], x, y[r0:r1],
        )

    def scatter_acc(
        self, data: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """``y[row] += data * x[slot]`` over the planned slots.

        ``x`` may be ``(nnz,)`` or ``(nnz, ncomp)`` (with matching
        ``y``): a 2D block scatters all components of a slot in one
        pass — one indirect lookup per slot instead of per value.
        Allocation-free via scipy's C CSR matvec(s).
        """
        for j, (s0, s1, *_) in enumerate(self.blocks):
            self.block_acc(j, data, x[s0:s1], y)
        return y

    def workspace_bytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes


def spmv_acc(A, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y += A @ x`` for a CSR matrix ``A``; ``x``/``y`` may be 1D or
    C-contiguous 2D (multiple right-hand sides); allocation-free."""
    return _csr_acc(*A.shape, A.indptr, A.indices, A.data, x, y)


def spmv_into(A, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y[:] = A @ x`` into a caller-owned buffer."""
    y.fill(0.0)
    return spmv_acc(A, x, y)
