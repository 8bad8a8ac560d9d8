"""Numba compute backend: the same fused kernels, JIT-compiled with
``prange`` parallelism.

Importing this module raises :class:`ImportError` when numba is not
installed; the registry in :mod:`repro.backend` catches that and falls
back to the numpy backend with a warning, so the package never hard-
depends on numba.

Both loops are race-free by construction: the element apply writes one
block row per element, and the scatter is parallelized over *output*
rows of the precomputed CSR plan (each row sums its own slots), so no
atomics or coloring are needed.  Results match the numpy backend to
roundoff — the summation sets per output entry are identical, only
their internal ordering may differ.
"""

from __future__ import annotations

import numpy as np
from numba import njit, prange

from repro.backend.numpy_backend import NumpyElementKernel, NumpyVarMatKernel


@njit(parallel=True, cache=True)
def _apply_elements(dof, MT, u, Y):  # pragma: no cover - needs numba
    nelem, nldof = dof.shape
    width = MT.shape[1]
    for e in prange(nelem):
        for j in range(width):
            s = 0.0
            for i in range(nldof):
                s += u[dof[e, i]] * MT[i, j]
            Y[e, j] = s


@njit(parallel=True, cache=True)
def _apply_varmat(dof, Ke, u, Y):  # pragma: no cover - needs numba
    nelem, nldof = dof.shape
    for e in prange(nelem):
        for i in range(nldof):
            s = 0.0
            for j in range(nldof):
                s += Ke[e, i, j] * u[dof[e, j]]
            Y[e, i] = s


@njit(parallel=True, cache=True)
def _apply_elements_mat(dof, MT, U2, Y):  # pragma: no cover - needs numba
    """Multi-RHS element apply: ``Y[e, w, b] = sum_i U2[dof[e, i], b]
    * MT[i, w]`` — accumulation ascends over ``i`` exactly like the
    single-RHS kernel, so every column is bit-identical to a matvec."""
    nelem, nldof = dof.shape
    width = MT.shape[1]
    B = U2.shape[1]
    for e in prange(nelem):
        for j in range(width):
            for b in range(B):
                Y[e, j, b] = 0.0
        for i in range(nldof):
            g = dof[e, i]
            for j in range(width):
                m = MT[i, j]
                for b in range(B):
                    Y[e, j, b] += m * U2[g, b]


@njit(parallel=True, cache=True)
def _csr_scatter_acc(indptr, indices, data, X, Y):  # pragma: no cover
    """Node-wise scatter: ``Y[r, :] += data[p] * X[indices[p], :]``.
    Parallel over output rows, so race-free without atomics."""
    n = Y.shape[0]
    ncomp = Y.shape[1]
    for r in prange(n):
        for p in range(indptr[r], indptr[r + 1]):
            d = data[p]
            j = indices[p]
            for c in range(ncomp):
                Y[r, c] += d * X[j, c]


class NumbaElementKernel(NumpyElementKernel):
    """Shared-matrix kernel with jitted apply and scatter (plan
    construction, coefficient binding, and the overlap split reuse the
    numpy kernel)."""

    def matvec(self, u_flat, out_flat, handle=None):
        data = self._bound(handle)
        out_flat.fill(0.0)
        if self.nelem == 0:
            return out_flat
        _apply_elements(self.dof, self.MT, u_flat, self._Y)
        _csr_scatter_acc(
            self.plan.indptr, self.plan.indices, data, self._Yb,
            out_flat.reshape(self.nnode, self.ncomp),
        )
        return out_flat

    def matrows(self, rows, out_rows, handle=None):
        # row by row through the jitted matvec, which keeps row t
        # bit-identical to matvec(rows[t]) on this backend too
        self._check_rows(rows, out_rows)
        for row, out in zip(rows, out_rows):
            self.matvec(row, out, handle)
        return out_rows

    def matvec_interface(self, u_flat, out_flat):
        k = self.split_elems
        if k is None:
            raise ValueError("call set_split() before the phased matvec")
        out_flat.fill(0.0)
        if k == 0:
            return out_flat
        _apply_elements(self.dof[:k], self.MT, u_flat, self._Y[:k])
        _csr_scatter_acc(
            self._plan_lo.indptr, self._plan_lo.indices, self._data_lo,
            self._Yb, out_flat.reshape(self.nnode, self.ncomp),
        )
        return out_flat

    def matvec_interior(self, u_flat, out_flat):
        k = self.split_elems
        if k is None:
            raise ValueError("call set_split() before the phased matvec")
        if k >= self.nelem:
            return out_flat
        _apply_elements(self.dof[k:], self.MT, u_flat, self._Y[k:])
        _csr_scatter_acc(
            self._plan_hi.indptr, self._plan_hi.indices, self._data_hi,
            self._Yb, out_flat.reshape(self.nnode, self.ncomp),
        )
        return out_flat

    # ------------------------------------------------------- multi-RHS

    def _ensure_batch(self, B: int) -> None:
        """The jitted apply reads straight from the column block, so
        only the slot-major result buffer is needed."""
        if self._batch_B == B:
            return
        self._Ym = np.empty((self.nelem, self.nldof * self.nmat, B))
        self._batch_B = B

    def matmat(self, u2, out2, handle=None):
        data = self._bound(handle)
        B = self._check_block(u2, out2)
        out2.fill(0.0)
        if self.nelem == 0:
            return out2
        self._ensure_batch(B)
        _apply_elements_mat(self.dof, self.MT, u2, self._Ym)
        Xb, Yb = self._block_views(out2, B)
        _csr_scatter_acc(self.plan.indptr, self.plan.indices, data, Xb, Yb)
        return out2

    def matmat_interface(self, u2, out2):
        k = self.split_elems
        if k is None:
            raise ValueError("call set_split() before the phased matmat")
        B = self._check_block(u2, out2)
        out2.fill(0.0)
        if k == 0:
            return out2
        self._ensure_batch(B)
        _apply_elements_mat(self.dof[:k], self.MT, u2, self._Ym[:k])
        Xb, Yb = self._block_views(out2, B)
        _csr_scatter_acc(
            self._plan_lo.indptr, self._plan_lo.indices, self._data_lo,
            Xb, Yb,
        )
        return out2

    def matmat_interior(self, u2, out2):
        k = self.split_elems
        if k is None:
            raise ValueError("call set_split() before the phased matmat")
        B = self._check_block(u2, out2)
        if k >= self.nelem:
            return out2
        self._ensure_batch(B)
        _apply_elements_mat(self.dof[k:], self.MT, u2, self._Ym[k:])
        Xb, Yb = self._block_views(out2, B)
        _csr_scatter_acc(
            self._plan_hi.indptr, self._plan_hi.indices, self._data_hi,
            Xb, Yb,
        )
        return out2


class NumbaVarMatKernel(NumpyVarMatKernel):
    def matvec(self, u_flat, out_flat):
        out_flat.fill(0.0)
        if self.nelem == 0:
            return out_flat
        _apply_varmat(self.dof, self.Ke, u_flat, self._Y)
        _csr_scatter_acc(
            self.plan.indptr, self.plan.indices, self._ones, self._Yb,
            out_flat.reshape(self.nnode, self.ncomp),
        )
        return out_flat


class NumbaBackend:
    name = "numba"

    def element_kernel(self, conn, mats, nnode, ncomp=1, coefs=None):
        return NumbaElementKernel(conn, mats, nnode, ncomp=ncomp, coefs=coefs)

    def varmat_kernel(self, conn, Ke, nnode, ncomp=1):
        return NumbaVarMatKernel(conn, Ke, nnode, ncomp=ncomp)
