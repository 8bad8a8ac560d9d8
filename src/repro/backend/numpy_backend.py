"""Pure-NumPy compute backend: fused, allocation-free element kernels.

A stiffness application is three steps — gather, dense block apply,
scatter — and after construction every step writes into preallocated
workspace, so a ``matvec`` performs **zero heap allocations** of
element- or node-sized arrays:

1. ``np.take(u, dof, out=U)`` gathers the element corner values;
2. one BLAS call ``U @ [M_0^T | M_1^T | ...]`` (``out=``) applies all
   reference matrices at once into a wide result block;
3. a coefficient-folded CSR scatter (:class:`ScatterPlan`) accumulates
   the block into the output, multiplying by the per-element material
   coefficients as it goes — no separate scaling pass.

The scatter is planned over *nodes*, not dofs: for a vector problem
(``ncomp = 3``) the element result block reshapes to one row of
``ncomp`` contiguous values per (element, matrix, corner) slot, and a
single multi-vector CSR product adds all components of a node at once.
That cuts the indirect addressing per scatter by ``ncomp`` — the only
part of the matvec that is not a dense BLAS pass.

The same plan serves the operator diagonal: the diagonal contribution
of an element is its coefficient times the reference diagonal, which is
the folded scatter applied to a constant slot block.
"""

from __future__ import annotations

import numpy as np

from repro.backend.blas_threads import single_thread_blas
from repro.backend.sparse_ops import ScatterPlan

#: gather + product workspace of one :meth:`NumpyElementKernel.matrows`
#: row block (bytes, about one L2): the block's element values are
#: scattered while still in cache, and the workspace does not grow with
#: the row count (1-2 MB measured fastest on the 64 x 32 inversion grid;
#: 4 MB and up cost 25 % more per row)
ROW_BLOCK_BYTES = 1 << 20


def element_flops(nmat: int, nldof: int) -> int:
    """Exact flop count of one element's stiffness application in
    :meth:`NumpyElementKernel.matvec`, from the operation shapes: the
    ``(nldof,) @ (nldof, nmat*nldof)`` product (multiply + add per
    entry) plus the coefficient multiply and accumulate of the folded
    scatter — one per (matrix, local dof) slot — plus the
    output-touching adds (``nldof``)."""
    return 2 * nmat * nldof * nldof + nmat * nldof + nldof


def _element_dof(conn: np.ndarray, ncomp: int) -> np.ndarray:
    """``(nelem, ncorner*ncomp)`` flat dof map (component-fastest)."""
    if ncomp == 1:
        return conn
    nelem = len(conn)
    return np.ascontiguousarray(
        (conn[:, :, None] * ncomp + np.arange(ncomp)[None, None, :]).reshape(
            nelem, conn.shape[1] * ncomp
        )
    )


class NumpyElementKernel:
    """Shared-reference-matrix element kernel (hexahedra on an octree:
    all element matrices are ``sum_i c_i[e] * M_i``).

    Parameters
    ----------
    conn:
        ``(nelem, ncorner)`` node connectivity.
    mats:
        Reference matrices ``M_i`` of shape ``(ncorner*ncomp,) * 2``
        with component-fastest dof ordering.
    nnode:
        Number of nodes; flat vectors have length ``nnode * ncomp``.
    ncomp:
        Field components per node (1 scalar, 3 elastic).
    coefs:
        Optional fixed per-element coefficients ``c_i`` (one ``(nelem,)``
        array per matrix): the kernel is bound to them at construction.
        Without them every apply takes a handle from :meth:`bind`.
    """

    def __init__(self, conn, mats, nnode, ncomp=1, coefs=None):
        conn = np.ascontiguousarray(conn, dtype=np.int64)
        self.nelem, self.ncorner = conn.shape
        self.nmat = len(mats)
        self.ncomp = int(ncomp)
        self.nnode = int(nnode)
        self.ndof = self.nnode * self.ncomp
        self.nldof = self.ncorner * self.ncomp
        self.conn = conn
        self.dof = _element_dof(conn, self.ncomp)
        width = self.nldof * self.nmat
        for M in mats:
            if np.asarray(M).shape != (self.nldof, self.nldof):
                raise ValueError("reference matrix does not match conn/ncomp")
        self.MT = np.ascontiguousarray(
            np.concatenate(
                [np.asarray(M, dtype=float).T for M in mats], axis=1
            )
        )
        # node-wise scatter: one slot per (element, matrix, corner),
        # each carrying ncomp contiguous values of the result block
        self.plan = ScatterPlan(
            np.tile(conn, (1, self.nmat)).ravel(), self.nnode
        )
        self._U = np.empty((self.nelem, self.nldof))
        self._Y = np.empty((self.nelem, width))
        #: (nslot, ncomp) view of the result block, slot-major
        self._Yb = self._Y.reshape(-1, self.ncomp)
        # reference diagonals per (matrix, corner, comp) slot; tiled on
        # demand for diagonal() (cold path)
        self._diag_ref = np.ascontiguousarray(
            np.concatenate(
                [np.diag(np.asarray(M, float)) for M in mats]
            ).reshape(self.nmat * self.ncorner, self.ncomp)
        )
        self.split_elems = None
        self._plan_lo = self._plan_hi = None
        self._data_lo = self._data_hi = None
        # row-block (matrows) and multi-RHS (matmat) workspace, sized on
        # first use and kept — both are allocation-free after that
        # warmup, exactly like matvec
        self._Ur = self._Yr = self._adj = None
        self._batch_B = 0
        #: folded scatter data of the construction-time coefficients;
        #: None for a kernel whose applies take a handle
        self._data = None
        if coefs is not None:
            # bind once, then free what only rebinding would need
            self._data = self.bind(coefs)
            self.plan.drop_order()

    # pickling (the service's disk artifact tier stores constructed
    # operators): the workspace buffers are coupled by views — _Yb
    # aliases _Y, the row blocks may alias both — and pickle severs
    # aliasing, so we drop all scratch and rebuild it on load.
    # Everything semantic (plan, folded data, split data) round-trips,
    # and so does a handle pickled next to its kernel; row-block and
    # batch workspace re-size lazily on first use.
    _SCRATCH = ("_U", "_Y", "_Yb", "_Ur", "_Yr", "_adj", "_u2T", "_o2T")

    def __getstate__(self):
        state = {
            k: v for k, v in self.__dict__.items() if k not in self._SCRATCH
        }
        state["_batch_B"] = 0
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._U = np.empty((self.nelem, self.nldof))
        self._Y = np.empty((self.nelem, self.nldof * self.nmat))
        self._Yb = self._Y.reshape(-1, self.ncomp)
        self._Ur = self._Yr = self._adj = None

    def bind(self, coefs) -> np.ndarray:
        """Fold per-element coefficients ``c_i`` (one ``(nelem,)`` array
        per matrix) into scatter order.  The returned handle — the CSR
        data array, owned by the caller — is what :meth:`matvec`,
        :meth:`matmat`, :meth:`matrows` and :meth:`diagonal` take, so a
        time loop folds once and any number of materials can alternate
        through one kernel without refolding."""
        c = np.stack([np.asarray(c, dtype=float) for c in coefs], axis=1)
        if c.shape != (self.nelem, self.nmat):
            raise ValueError(
                f"need {self.nmat} coefficient arrays of length {self.nelem}"
            )
        # one coefficient per (element, matrix, corner) slot; fold()
        # refuses once a construction-time binding dropped its order
        return self.plan.fold(
            np.repeat(c, self.ncorner, axis=1).reshape(-1),
            np.empty(self.plan.nnz),
        )

    def _bound(self, handle) -> np.ndarray:
        """The scatter data an apply runs with."""
        if handle is None:
            handle = self._data
            if handle is None:
                raise ValueError(
                    "kernel built without fixed coefs: pass a handle "
                    "from bind()"
                )
        elif handle.shape != (self.plan.nnz,):
            raise ValueError("handle was not bound by this kernel")
        return handle

    @property
    def flops_per_matvec(self) -> int:
        """Exact flop count of one stiffness application:
        :func:`element_flops` per element."""
        return self.nelem * element_flops(self.nmat, self.nldof)

    def flops_per_matmat(self, width: int) -> int:
        """Exact flop count of one multi-RHS application of ``width``
        columns — each column performs the matvec arithmetic, so the
        batched and one-RHS accountings can never drift."""
        return int(width) * self.flops_per_matvec

    def set_split(self, nelem_lo: int) -> None:
        """Enable the two-phase overlapped matvec: elements
        ``[0, nelem_lo)`` (the caller orders interface elements first)
        are applied by :meth:`matvec_interface`, the rest accumulated
        by :meth:`matvec_interior`.  The scatter plan is split along
        the same boundary, so the two phases together equal one full
        :meth:`matvec` to roundoff (the scatter order is identical;
        only BLAS shape-dependent summation in the block product can
        differ in the last ulp) and are bit-reproducible run to run —
        which is what makes the simulated and process transports
        bit-comparable."""
        nelem_lo = int(nelem_lo)
        if not 0 <= nelem_lo <= self.nelem:
            raise ValueError(
                f"split {nelem_lo} outside [0, {self.nelem}] elements"
            )
        if self._data is None:
            raise ValueError(
                "overlap split requires fixed (folded) coefficients"
            )
        cut = nelem_lo * self.nmat * self.ncorner  # slots element-major
        plan_lo, plan_hi, mask_lo = self.plan.split(cut)
        self.split_elems = nelem_lo
        self._plan_lo, self._plan_hi = plan_lo, plan_hi
        self._data_lo = np.ascontiguousarray(self._data[mask_lo])
        self._data_hi = np.ascontiguousarray(self._data[~mask_lo])

    def matvec_interface(self, u_flat, out_flat):
        """Phase 1 of the overlapped matvec: zero ``out`` and apply
        the leading (interface) elements only, completing the local
        partial sums on every boundary node."""
        k = self.split_elems
        if k is None:
            raise ValueError("call set_split() before the phased matvec")
        out_flat.fill(0.0)
        if k == 0:
            return out_flat
        np.take(u_flat, self.dof[:k], out=self._U[:k], mode="clip")
        np.dot(self._U[:k], self.MT, out=self._Y[:k])
        self._plan_lo.scatter_acc(
            self._data_lo, self._Yb, out_flat.reshape(self.nnode, self.ncomp)
        )
        return out_flat

    def matvec_interior(self, u_flat, out_flat):
        """Phase 2: accumulate the trailing (interior) elements into
        ``out`` — the work the ghost exchange hides behind."""
        k = self.split_elems
        if k is None:
            raise ValueError("call set_split() before the phased matvec")
        if k >= self.nelem:
            return out_flat
        np.take(u_flat, self.dof[k:], out=self._U[k:], mode="clip")
        np.dot(self._U[k:], self.MT, out=self._Y[k:])
        self._plan_hi.scatter_acc(
            self._data_hi, self._Yb, out_flat.reshape(self.nnode, self.ncomp)
        )
        return out_flat

    # ------------------------------------------------------- multi-RHS

    def _check_block(self, u2, out2) -> int:
        """Validate a ``(ndof, B)`` column block pair; returns ``B``.
        The input may be strided (the gather handles it); the output
        must be C-contiguous because the scatter writes through a
        reshaped node-major view."""
        if u2.ndim != 2 or u2.shape[0] != self.ndof:
            raise ValueError(
                f"matmat input must be ({self.ndof}, B), got {u2.shape}"
            )
        if out2.shape != u2.shape:
            raise ValueError("matmat input/output shapes must match")
        if not out2.flags.c_contiguous:
            raise ValueError("matmat output block must be C-contiguous")
        return u2.shape[1]

    def _ensure_batch(self, B: int) -> None:
        """Size the multi-RHS workspace for batch width ``B``; kept
        until the width changes, so steady-state matmat calls perform
        zero heap allocations."""
        if self._batch_B == B:
            return
        #: scenario-major state / result blocks: row b is the full flat
        #: dof vector of column b — one small transpose each way
        #: brackets the batch instead of two large slot-space permutes
        self._u2T = np.empty((B, self.ndof))
        self._o2T = np.empty((B, self.ndof))
        self._batch_B = B

    def matmat(self, u2, out2, handle=None):
        """Multi-RHS stiffness: ``out2[:, b] = K(c) u2[:, b]`` for a
        column block ``(ndof, B)``.  The block is transposed to
        scenario-major (the only copies are the two ``(ndof, B)``
        transposes) and applied by :meth:`matrows`, so each column is
        bit-identical to the corresponding :meth:`matvec`."""
        B = self._check_block(u2, out2)
        self._ensure_batch(B)
        np.copyto(self._u2T, u2.T)
        self.matrows(self._u2T, self._o2T, handle)
        np.copyto(out2, self._o2T.T)
        return out2

    def matvec(self, u_flat, out_flat, handle=None):
        """``out = K(c) u``; both flat, ``out`` caller-owned.  ``c`` is
        the construction-time coefficients or a :meth:`bind` handle."""
        data = self._bound(handle)
        out_flat.fill(0.0)
        if self.nelem == 0:
            return out_flat
        # mode="clip": the default "raise" routes through a bounce
        # buffer even with out= (indices are valid by construction)
        np.take(u_flat, self.dof, out=self._U, mode="clip")
        np.dot(self._U, self.MT, out=self._Y)
        self.plan.scatter_acc(
            data, self._Yb, out_flat.reshape(self.nnode, self.ncomp)
        )
        return out_flat

    # ------------------------------------------------------ row blocks

    def _row_blocks(self, rows):
        """Gather and block-multiply ``rows`` one cache-sized block at a
        time: yields ``(t0, Y)`` with ``Y`` ``(n, nelem * width)`` the
        element products of ``rows[t0 : t0 + n]``, valid until the next
        block overwrites the workspace.  The block height is
        fixed by :data:`ROW_BLOCK_BYTES`, not by the caller's row
        count; when one row fills a block the matvec buffers serve and
        nothing is allocated.

        The product runs the rows *stacked*: ``(n * nelem, nldof) @
        (nldof, width)`` — the same (k, n) GEMM shape as the one-row
        apply, so the per-entry summation order over ``k`` is unchanged
        and every row is bit-identical to :meth:`matvec`'s (enforced by
        ``tests/test_batch.py``).  Layouts that fuse the rows into the
        GEMM's ``n`` dimension are *not* bitwise-stable."""
        width = self.nldof * self.nmat
        if self._Ur is None:
            per_row = 8 * self.nelem * (self.nldof + width)
            nb = ROW_BLOCK_BYTES // max(per_row, 1)
            if nb <= 1:
                self._Ur = self._U.reshape(1, -1)
                self._Yr = self._Y.reshape(1, -1)
            else:
                self._Ur = np.empty((nb, self.nelem * self.nldof))
                self._Yr = np.empty((nb, self.nelem * width))
        U, Y, dof = self._Ur, self._Yr, self.dof.reshape(-1)
        for t0 in range(0, len(rows), len(U)):
            n = min(len(U), len(rows) - t0)
            rows[t0 : t0 + n].take(dof, axis=1, out=U[:n], mode="clip")
            np.dot(
                U[:n].reshape(-1, self.nldof), self.MT,
                out=Y[:n].reshape(-1, width),
            )
            yield t0, Y[:n]

    def _check_rows(self, rows, out_rows) -> None:
        """Validate a ``(T, ndof)`` row block pair (the scatter writes
        each output row through a reshaped node-major view)."""
        if rows.ndim != 2 or rows.shape[1] != self.ndof:
            raise ValueError(
                f"matrows input must be (T, {self.ndof}), got {rows.shape}"
            )
        if out_rows.shape != rows.shape or not out_rows.flags.c_contiguous:
            raise ValueError(
                "matrows output must be C-contiguous and shaped like the input"
            )

    def matrows(self, rows, out_rows, handle=None):
        """``out_rows[t] = K(c) rows[t]`` for a time- or scenario-major
        block ``(T, ndof)`` — row ``t`` bit-identical to
        ``matvec(rows[t])``.  One gather and one level-3 product per
        cache-sized row block, then each row scattered through the
        single plan while its element values are still warm."""
        data = self._bound(handle)
        self._check_rows(rows, out_rows)
        out_rows.fill(0.0)
        if self.nelem == 0:
            return out_rows
        out3 = out_rows.reshape(len(rows), self.nnode, self.ncomp)
        scatter = self.plan.scatter_acc
        for t0, Y in self._row_blocks(rows):
            Yb = Y.reshape(len(Y), -1, self.ncomp)
            for i in range(len(Y)):
                scatter(data, Yb[i], out3[t0 + i])
        return out_rows

    def coef_gradient(self, rows, adj_rows) -> np.ndarray:
        """``g[i, e] = sum_t adj_t[dof_e] . (M_i rows_t[dof_e])`` — the
        derivative of ``sum_t adj_t^T K(c) rows_t`` with respect to the
        coefficient ``c_i[e]`` (the elastic inversion's material-gradient
        accumulation).  Same row blocks as :meth:`matrows`, with the
        scatter replaced by a contraction against the gathered
        ``adj_rows``; returns ``(nmat, nelem)``."""
        if (
            rows.ndim != 2
            or rows.shape[1] != self.ndof
            or adj_rows.shape != rows.shape
        ):
            raise ValueError(
                f"need two (T, {self.ndof}) blocks, got {rows.shape} "
                f"and {adj_rows.shape}"
            )
        g = np.zeros((self.nmat, self.nelem))
        if self.nelem == 0:
            return g
        dof = self.dof.reshape(-1)
        for t0, Y in self._row_blocks(rows):
            n = len(Y)
            if self._adj is None:
                self._adj = np.empty_like(self._Ur)
            A = self._adj[:n]
            adj_rows[t0 : t0 + n].take(dof, axis=1, out=A, mode="clip")
            A = A.reshape(n, self.nelem, self.nldof)
            Y = Y.reshape(n, self.nelem, self.nmat, self.nldof)
            for i in range(self.nmat):
                g[i] += np.einsum("tei,tei->e", A, Y[:, :, i])
        return g

    def diagonal(self, out_flat, handle=None):
        """Assembled operator diagonal into ``out_flat``."""
        data = self._bound(handle)
        out_flat.fill(0.0)
        if self.nelem == 0:
            return out_flat
        diag_slots = np.tile(self._diag_ref, (self.nelem, 1))
        self.plan.scatter_acc(
            data, diag_slots, out_flat.reshape(self.nnode, self.ncomp)
        )
        return out_flat

    def workspace_bytes(self) -> int:
        held = [
            self.dof, self._U, self._Y, self._diag_ref, self._data,
            self._adj, self._data_lo, self._data_hi,
        ]
        if self.ncomp > 1:
            held.append(self.conn)
        if self._Ur is not None and len(self._Ur) > 1:
            held += [self._Ur, self._Yr]
        if self._batch_B:
            held += [self._u2T, self._o2T]
        n = sum(buf.nbytes for buf in held if buf is not None)
        for plan in (self.plan, self._plan_lo, self._plan_hi):
            if plan is not None:
                n += plan.workspace_bytes()
        return n


class NumpyVarMatKernel:
    """Per-element-matrix kernel (the tetrahedral baseline, where the
    6-tet split leaves no shared reference matrix)."""

    def __init__(self, conn, Ke, nnode, ncomp=1):
        conn = np.ascontiguousarray(conn, dtype=np.int64)
        self.nelem, self.ncorner = conn.shape
        self.ncomp = int(ncomp)
        self.nnode = int(nnode)
        self.ndof = self.nnode * self.ncomp
        self.nldof = self.ncorner * self.ncomp
        self.conn = conn
        self.dof = _element_dof(conn, self.ncomp)
        self.Ke = np.ascontiguousarray(Ke, dtype=float)
        self.plan = ScatterPlan(conn.ravel(), self.nnode)
        self._U = np.empty((self.nelem, self.nldof))
        self._Y = np.empty((self.nelem, self.nldof))
        self._Yb = self._Y.reshape(-1, self.ncomp)
        self._ones = np.ones(self.plan.nnz)

    def __getstate__(self):
        # _Yb is a view of _Y; drop the scratch pair and rebuild on
        # load (see NumpyElementKernel.__getstate__)
        return {
            k: v
            for k, v in self.__dict__.items()
            if k not in ("_U", "_Y", "_Yb")
        }

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._U = np.empty((self.nelem, self.nldof))
        self._Y = np.empty((self.nelem, self.nldof))
        self._Yb = self._Y.reshape(-1, self.ncomp)

    @property
    def flops_per_matvec(self) -> int:
        """Exact flop count of one apply: the per-element dense
        ``(nldof, nldof)`` product (multiply + add) plus the scatter
        accumulate, one add per local dof slot."""
        return self.nelem * (2 * self.nldof * self.nldof + self.nldof)

    def flops_per_matmat(self, width: int) -> int:
        return int(width) * self.flops_per_matvec

    def matvec(self, u_flat, out_flat):
        out_flat.fill(0.0)
        if self.nelem == 0:
            return out_flat
        np.take(u_flat, self.dof, out=self._U, mode="clip")
        np.einsum("eij,ej->ei", self.Ke, self._U, out=self._Y)
        self.plan.scatter_acc(
            self._ones, self._Yb, out_flat.reshape(self.nnode, self.ncomp)
        )
        return out_flat

    def workspace_bytes(self) -> int:
        n = (
            self.dof.nbytes
            + self._U.nbytes
            + self._Y.nbytes
            + self._ones.nbytes
        )
        if self.ncomp > 1:
            n += self.conn.nbytes
        return n + self.plan.workspace_bytes()


class NumpyBackend:
    """The backend: BLAS block apply + C-level CSR scatter."""

    name = "numpy"

    def __init__(self):
        single_thread_blas()  # the kernels' GEMM is tall and skinny

    def element_kernel(self, conn, mats, nnode, ncomp=1, coefs=None):
        return NumpyElementKernel(conn, mats, nnode, ncomp=ncomp, coefs=coefs)

    def varmat_kernel(self, conn, Ke, nnode, ncomp=1):
        return NumpyVarMatKernel(conn, Ke, nnode, ncomp=ncomp)
