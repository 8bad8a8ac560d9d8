"""Pure-NumPy compute backend: fused, allocation-free element kernels.

A stiffness application is three steps — gather, dense block apply,
scatter — run **one element block at a time**, so a block's gathered
values and products are scattered while they are still in cache, and
the workspace is one block, not the whole mesh.  After construction
every step writes into that workspace, so a ``matvec`` performs **zero
heap allocations** of element- or node-sized arrays.  Per block:

1. ``take(u, dof[e0:e1], out=U)`` gathers the block's corner values;
2. one BLAS call ``U @ [M_0^T | M_1^T | ...]`` (``out=``) applies all
   reference matrices at once into a wide result block;
3. the block's part of a coefficient-folded CSR scatter
   (:class:`ScatterPlan`) accumulates the block into the rows it
   touches, multiplying by the per-element material coefficients as it
   goes — no separate scaling pass.

The scatter is planned over *nodes*, not dofs: for a vector problem
(``ncomp = 3``) the element result block reshapes to one row of
``ncomp`` contiguous values per (element, matrix, corner) slot, and a
single multi-vector CSR product adds all components of a node at once.
That cuts the indirect addressing per scatter by ``ncomp`` — the only
part of the matvec that is not a dense BLAS pass.  scipy's CSR product
adds one entry at a time into the output, and the blocks run in slot
order, so every node sums its terms in the order of one unblocked
scatter: the blocking moves no bit.

One path serves every apply: ``matvec`` is the one-row case of
``matrows``, ``matmat`` is ``matrows`` on the transposed block, the
phased matvec of a distributed rank is the blocks before and after a
cut at ``split_elems``, and ``coef_gradient`` and ``diagonal`` walk the
same blocks.
"""

from __future__ import annotations

import numpy as np

from repro.backend.blas_threads import single_thread_blas
from repro.backend.sparse_ops import ScatterPlan

#: gather + product workspace of one element block (bytes): 512
#: elastic hexahedra, 24 gathered values and 48 products each (0.3 MB,
#: well inside a 4 MB L2).  Swept on basin_forward's and
#: ensemble_batch's meshes: 256 to 1,024 elements per block all beat
#: the unblocked kernel, 512 to 768 by most.
BLOCK_BYTES = 512 * 8 * (24 + 48)

#: :meth:`NumpyElementKernel.matrows` stacks as many rows in each
#: block's GEMM as whole-mesh rows fit in this many bytes (at least
#: one): 1-2 MB measured fastest on the 64 x 32 inversion grid, 4 MB
#: and up cost 25 % more per row.  Only a mesh under about 1,800
#: elastic elements stacks more than one row.
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
    split_elems:
        Optional cut for the two-phase matvec of a distributed rank:
        elements ``[0, split_elems)`` (the caller orders interface
        elements first) are applied by :meth:`matvec_interface`, the
        rest by :meth:`matvec_interior`.
    """

    def __init__(
        self, conn, mats, nnode, ncomp=1, coefs=None, split_elems=None
    ):
        conn = np.ascontiguousarray(conn, dtype=np.int64)
        self.nelem, self.ncorner = conn.shape
        self.nmat = len(mats)
        self.ncomp = int(ncomp)
        self.nnode = int(nnode)
        self.ndof = self.nnode * self.ncomp
        self.nldof = self.ncorner * self.ncomp
        self.conn = conn
        self.dof = _element_dof(conn, self.ncomp)
        for M in mats:
            if np.asarray(M).shape != (self.nldof, self.nldof):
                raise ValueError("reference matrix does not match conn/ncomp")
        self.MT = np.ascontiguousarray(
            np.concatenate(
                [np.asarray(M, dtype=float).T for M in mats], axis=1
            )
        )
        # element blocks of BLOCK_BYTES, restarted at the phase cut
        per_elem = 8 * self.nldof * (1 + self.nmat)
        nbe = max(1, min(self.nelem, BLOCK_BYTES // per_elem))
        cut = self.nelem if split_elems is None else int(split_elems)
        if not 0 <= cut <= self.nelem:
            raise ValueError(f"split {cut} outside [0, {self.nelem}] elements")
        self.split_elems = split_elems
        #: element bounds of the blocks; block j is [eb[j], eb[j + 1])
        self._eb = sorted(
            {*range(0, cut, nbe), *range(cut, self.nelem, nbe), self.nelem}
        )
        self._blocks = range(len(self._eb) - 1)
        nlo = self._eb.index(cut)
        #: the blocks before and after the phase cut
        self._phases = (
            None
            if split_elems is None
            else (self._blocks[:nlo], self._blocks[nlo:])
        )
        #: rows one block stacks in its GEMM: as many whole-mesh rows as
        #: fit in ROW_BLOCK_BYTES
        self._nrow = max(1, ROW_BLOCK_BYTES // max(per_elem * self.nelem, 1))
        self._nbe = nbe
        # node-wise scatter: one slot per (element, matrix, corner),
        # each carrying ncomp contiguous values of the result block;
        # the plan's blocks are the element blocks
        slots = self.nmat * self.ncorner
        self.plan = ScatterPlan(
            np.tile(conn, (1, self.nmat)).ravel(), self.nnode,
            cuts=[slots * e for e in self._eb],
        )
        # reference diagonals per (matrix, corner, comp) slot; tiled on
        # demand for diagonal() (cold path)
        self._diag_ref = np.ascontiguousarray(
            np.concatenate(
                [np.diag(np.asarray(M, float)) for M in mats]
            ).reshape(slots, self.ncomp)
        )
        self._alloc()
        self._adj = None
        self._batch_B = 0
        #: folded scatter data of the construction-time coefficients;
        #: None for a kernel whose applies take a handle
        self._data = None
        if coefs is not None:
            self._data = self.bind(coefs)

    def _alloc(self, n: int = 1) -> None:
        """One block's gather and product workspace for stacks of ``n``
        rows.  It grows to the stacks :meth:`matrows` runs, and the
        adjoint gather (coef_gradient) and the multi-RHS transposes
        (matmat) are sized on first use; all are kept, so every apply
        is allocation-free after that warmup."""
        size = max(n * self._nbe, 2) * self.nldof
        self._U = np.zeros(size)
        self._Y = np.empty(size * self.nmat)
        self._views = {}

    # pickling (the service's disk artifact tier stores constructed
    # operators): the workspace is scratch, not state, and its views
    # alias it (pickle severs aliasing) — it is dropped and rebuilt on
    # load.  Everything semantic (plan, folded data) round-trips, and
    # so does a handle pickled next to its kernel.
    _SCRATCH = ("_U", "_Y", "_views", "_adj", "_u2T", "_o2T")

    def __getstate__(self):
        state = {
            k: v for k, v in self.__dict__.items() if k not in self._SCRATCH
        }
        state.update(_adj=None, _batch_B=0)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._alloc()

    def bind(self, coefs) -> np.ndarray:
        """Fold per-element coefficients ``c_i`` (one ``(nelem,)`` array
        per matrix) into scatter order.  The returned handle — the CSR
        data array, owned by the caller — is what :meth:`matvec`,
        :meth:`matmat`, :meth:`matrows` and :meth:`diagonal` take, so a
        time loop folds once and any number of materials can alternate
        through one kernel without refolding."""
        if self._data is not None:
            raise ValueError("kernel is bound to its construction coefs")
        c = np.stack([np.asarray(c, dtype=float) for c in coefs], axis=1)
        if c.shape != (self.nelem, self.nmat):
            raise ValueError(
                f"need {self.nmat} coefficient arrays of length {self.nelem}"
            )
        # one coefficient per (element, matrix, corner) slot
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

    # ---------------------------------------------------------- blocks

    def _block_views(self, n):
        """Per-block workspace views for a stack of ``n`` rows:
        ``(dof, U, U2, Y, Yrows)`` — the block's flat dof map, its
        gather block ``(n, m * nldof)`` and that block as the GEMM's
        ``(n * m, nldof)`` input, the product, and each row's products as
        ``(nslot, ncomp)`` scatter input.  The GEMM runs on at least two
        rows.  Built once per ``n`` and kept, so a steady-state apply
        builds none."""
        views = self._views.get(n)
        if views is None:
            nl, width, eb = self.nldof, self.nldof * self.nmat, self._eb
            if len(self._U) < n * self._nbe * nl:
                self._alloc(n)
            views = []
            for e0, e1 in zip(eb, eb[1:]):
                m = e1 - e0
                # a one-row GEMM takes BLAS's GEMV path, which rounds
                # differently: such a block multiplies a spare row too
                h = max(n * m, 2)
                Y = self._Y[: h * width].reshape(h, width)
                views.append((
                    self.dof[e0:e1].reshape(-1),
                    self._U[: n * m * nl].reshape(n, m * nl),
                    self._U[: h * nl].reshape(h, nl), Y,
                    list(Y[: n * m].reshape(n, -1, self.ncomp)),
                ))
            self._views[n] = views
        return views

    def _products(self, rows, blocks):
        """Gather and multiply ``rows`` block by block: for each stack
        of rows ``rows[t0 : t0 + n]`` and each element block ``j`` in
        ``blocks``, yields ``(j, t0, views)`` once the block's products
        are in ``views`` (see :meth:`_block_views`), valid until the
        next block overwrites the workspace.  A row stack is swept over
        all its blocks before the next, so its input and output rows
        stay warm.

        The product runs the rows *stacked*: ``(n * m, nldof) @
        (nldof, width)`` for an ``m``-element block — the same (k, n)
        GEMM shape for every block and row count, so the per-entry
        summation order over ``k`` never changes and every row is
        bit-identical to :meth:`matvec`'s (enforced by
        ``tests/test_blocked_kernel.py``).  Layouts that fuse the rows
        into the GEMM's ``n`` dimension are *not* bitwise-stable."""
        for t0 in range(0, len(rows), self._nrow):
            stack = rows[t0 : t0 + self._nrow]
            views = self._block_views(len(stack))
            for j in blocks:
                dof, U, U2, Y, _ = views[j]
                stack.take(dof, axis=1, out=U, mode="clip")
                np.dot(U2, self.MT, out=Y)
                yield j, t0, views[j]

    def _apply(self, rows, out_rows, handle, blocks):
        """``out_rows[t] += K(c) rows[t]`` over the element ``blocks``:
        each block scattered, row by row, right after its product."""
        data = self._bound(handle)
        out3 = out_rows.reshape(len(out_rows), self.nnode, self.ncomp)
        acc = self.plan.block_acc
        for j, t0, views in self._products(rows, blocks):
            for i, Yi in enumerate(views[4]):
                acc(j, data, Yi, out3[t0 + i])
        return out_rows

    def matvec(self, u_flat, out_flat, handle=None):
        """``out = K(c) u``; both flat, ``out`` caller-owned.  ``c`` is
        the construction-time coefficients or a :meth:`bind` handle."""
        out_flat.fill(0.0)
        self._apply(u_flat[None], out_flat[None], handle, self._blocks)
        return out_flat

    def _phase(self, i: int) -> range:
        if self._phases is None:
            raise ValueError("kernel built without split_elems")
        return self._phases[i]

    def matvec_interface(self, u_flat, out_flat, handle=None):
        """Phase 1 of the overlapped matvec: zero ``out`` and apply
        the blocks before the cut (the interface elements), completing
        the local partial sums on every boundary node.  Phase 1 then
        phase 2 runs the blocks of one :meth:`matvec` in its order, so
        the pair equals it bit for bit — which is what makes the
        simulated and process transports bit-comparable."""
        out_flat.fill(0.0)
        self._apply(u_flat[None], out_flat[None], handle, self._phase(0))
        return out_flat

    def matvec_interior(self, u_flat, out_flat, handle=None):
        """Phase 2: accumulate the blocks after the cut (the interior
        elements) into ``out`` — the work the ghost exchange hides
        behind."""
        self._apply(u_flat[None], out_flat[None], handle, self._phase(1))
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

    # ------------------------------------------------------ row blocks

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
        ``matvec(rows[t])``: the same blocks, with the rows stacked in
        each block's gather and GEMM."""
        self._check_rows(rows, out_rows)
        out_rows.fill(0.0)
        return self._apply(rows, out_rows, handle, self._blocks)

    def coef_gradient(self, rows, adj_rows) -> np.ndarray:
        """``g[i, e] = sum_t adj_t[dof_e] . (M_i rows_t[dof_e])`` — the
        derivative of ``sum_t adj_t^T K(c) rows_t`` with respect to the
        coefficient ``c_i[e]`` (the elastic inversion's material-gradient
        accumulation).  Same blocks as :meth:`matrows`, with the
        scatter replaced by a contraction against the gathered
        ``adj_rows``: one sum over each row stack, added into ``g``
        (an element's sum does not depend on the element blocking);
        returns ``(nmat, nelem)``."""
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
        eb = self._eb
        for j, t0, (dof, U, _, Y, _) in self._products(rows, self._blocks):
            (n, mnl), m = U.shape, eb[j + 1] - eb[j]
            if self._adj is None or len(self._adj) < len(self._U):
                self._adj = np.empty_like(self._U)
            A = self._adj[: n * mnl].reshape(n, mnl)
            adj_rows[t0 : t0 + n].take(dof, axis=1, out=A, mode="clip")
            A = A.reshape(n, m, self.nldof)
            Y = Y[: n * m].reshape(n, m, self.nmat, self.nldof)
            for i in range(self.nmat):
                g[i, eb[j] : eb[j + 1]] += np.einsum(
                    "tei,tei->e", A, Y[:, :, i]
                )
        return g

    def diagonal(self, out_flat, handle=None):
        """Assembled operator diagonal into ``out_flat``."""
        data = self._bound(handle)
        out_flat.fill(0.0)
        out2 = out_flat.reshape(self.nnode, self.ncomp)
        for j, (e0, e1) in enumerate(zip(self._eb, self._eb[1:])):
            diag_slots = np.tile(self._diag_ref, (e1 - e0, 1))
            self.plan.block_acc(j, data, diag_slots, out2)
        return out_flat

    def workspace_bytes(self) -> int:
        held = [
            self.dof, self._U, self._Y, self._diag_ref, self._data,
            self._adj,
        ]
        if self.ncomp > 1:
            held.append(self.conn)
        if self._batch_B:
            held += [self._u2T, self._o2T]
        n = sum(buf.nbytes for buf in held if buf is not None)
        return n + self.plan.workspace_bytes()


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

    def element_kernel(
        self, conn, mats, nnode, ncomp=1, coefs=None, split_elems=None
    ):
        return NumpyElementKernel(
            conn, mats, nnode, ncomp=ncomp, coefs=coefs,
            split_elems=split_elems,
        )

    def varmat_kernel(self, conn, Ke, nnode, ncomp=1):
        return NumpyVarMatKernel(conn, Ke, nnode, ncomp=ncomp)
