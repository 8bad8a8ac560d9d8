"""Dimension-generic regular-grid scalar wave solver (paper Section 3).

The inverse problem's state equation is

    ``rho u'' - div(mu grad u) = f``

on a rectangular box: free surface on top (``z = 0``), first-order
absorbing boundaries ``mu du/dn = -sqrt(rho mu) u'`` on the sides and
bottom.  Discretization: multilinear elements on a regular grid (2D
antiplane cross-sections or the 3D scalar case of Table 3.1), lumped
mass, central differences — the same physics as the 3D forward code.

The stiffness is **assembled**: on a regular grid every row couples a
node to its ``3^d`` stencil neighbors, so one int32 CSR pattern serves
every material (built on first use) and a material is one data array,
accumulated over the reference element's corner pairs.  The class
exposes the *operator pieces* the discrete adjoint needs:

* ``apply_K(mu, u)``        — stiffness action for per-element ``mu``
  (``bind_K(mu)`` assembles once, then ``apply_K_bound`` — one CSR
  product — or ``apply_K_rows`` — one per row of a stored history);
* ``damping_diag(mu)``      — lumped absorbing damping (depends on mu);
* ``K_material_gradient_batch`` — per-element ``sum_t lam^T (dK/dmu_e)
  u`` over a time-batched history, a correlation of ``lam`` with ``u``
  over the stencil's node offsets;
* ``C_material_gradient_batch`` — per-element ``sum_t lam^T (dC/dmu_e)
  w`` of fields on the damped nodes;
* ``march``                 — the shared leapfrog driver used by the
  forward, adjoint, and incremental (Gauss-Newton) sweeps, which are
  all the same dissipative recurrence: each step is one product of the
  step operator ``S = [-A+^{-1} A- | A+^{-1} (2M - dt^2 K)]`` with the
  stacked pair ``[x^{k-1}; x^k]``; every step it hands resume, fault,
  health and checkpoint duties to a
  :class:`~repro.solver.frame.MarchFrame`.  Clustered (``lts=``), it
  drains the elastic solver's one clustered loop,
  :func:`~repro.solver.wave_solver.march_clustered`, on per-level row
  sets whose stiffness step is the level's own rows of ``K``.

The leapfrog convention (states ``x^0 .. x^N``, ``x^0 = x^1 = 0``):

    ``A+ x^{k+1} = (2 M - dt^2 K) x^k - A- x^{k-1} + f^k``,
    ``A+- = M +- (dt/2) C``,  for k = 1 .. N-1.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.backend.sparse_ops import CSR, ScatterPlan
from repro.fem.scalar_element import scalar_stiffness_reference
from repro.physics.cfl import elem_stable_dt
from repro.solver.checkpoint import CheckpointManager
from repro.solver.frame import MarchFrame
from repro.solver.lts import DEFAULT_MAX_RATE, LTSPlan, build_lts_plan, resolve
from repro.solver.wave_solver import (
    cluster_levels,
    drain,
    march_clustered,
    restrict,
)
from repro.telemetry.metrics import CategoryCounter

from repro import telemetry

#: boundary classification helpers: (axis, side) pairs
Plane = tuple[int, int]

#: rows of the state window a march without a stored history steps
#: through: when it fills, its last two rows (the restart pair) move to
#: the front — one two-row copy per ``_WINDOW - 2`` steps
_WINDOW = 8


def _csr_pattern(mask: np.ndarray, cols: np.ndarray):
    """int32 ``(indptr, indices)`` of the entries ``mask`` selects from
    a dense ``(nrows, width)`` table of column indices, row by row."""
    indptr = np.zeros(len(mask) + 1, dtype=np.int32)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    return indptr, cols[mask].astype(np.int32, copy=False)


class _LevelStiffness(NamedTuple):
    """A clustered level's stiffness step: its own rows of the
    assembled ``K``, a :class:`CSR` over the level's local columns —
    the operator :func:`~repro.solver.wave_solver.march_clustered`
    applies to the level's local state (it fills the own rows of
    ``out``)."""

    A: CSR

    @property
    def nnode(self) -> int:
        return self.A.ncols

    def matvec(self, x, out):
        ko = out[: len(self.A.indptr) - 1]
        ko.fill(0.0)
        self.A.acc(x, ko)
        return out

    matmat = matvec

    def flops_per_matmat(self, width: int) -> int:
        return 2 * self.A.nnz * width


class RegularGridScalarWave:
    """Scalar wave substrate on a regular grid.

    Parameters
    ----------
    shape:
        Elements per axis, e.g. ``(nx, nz)`` or ``(nx, ny, nz)``.  The
        last axis is depth (z, pointing down).
    h:
        Grid spacing (meters), equal in all axes.
    rho:
        Density (scalar; the paper's inversion assumes known density).
    absorbing:
        Absorbing planes; default all but the top.
    """

    def __init__(
        self,
        shape: Sequence[int],
        h: float,
        rho: float,
        *,
        absorbing: Sequence[Plane] | None = None,
    ):
        self.shape = tuple(int(n) for n in shape)
        self.d = len(self.shape)
        if self.d not in (2, 3):
            raise ValueError("2D or 3D only")
        self.h = float(h)
        self.rho = float(rho)
        self.node_shape = tuple(n + 1 for n in self.shape)
        self.nnode = int(np.prod(self.node_shape))
        self.nelem = int(np.prod(self.shape))
        self.K_ref = scalar_stiffness_reference(self.d)
        self.conn = self._build_conn()
        self._conn_flat = self.conn.ravel()
        # lumped mass: rho h^d / 2^d per corner
        nn = 1 << self.d
        self.m = np.bincount(
            self._conn_flat,
            weights=np.full(self.nelem * nn, self.rho * self.h**self.d / nn),
            minlength=self.nnode,
        )
        if absorbing is None:
            absorbing = [
                (a, s) for a in range(self.d) for s in (0, 1)
            ]
            absorbing.remove((self.d - 1, 0))  # free surface on top
        self.absorbing = tuple(absorbing)
        self._boundary = [self._boundary_face(a, s) for (a, s) in self.absorbing]
        # planned scatters replacing the per-sweep np.add.at passes:
        # concatenating the absorbing planes preserves the sequential
        # per-plane accumulation order (the plan's stable sort keeps
        # slots ascending within each destination), so every result is
        # bitwise identical to the np.add.at original
        nfc = 1 << (self.d - 1)
        if self._boundary:
            self._bnd_elems = np.ascontiguousarray(
                np.concatenate([e for e, _ in self._boundary])
            )
            self._bnd_fnodes = np.ascontiguousarray(
                np.concatenate([fn for _, fn in self._boundary], axis=0)
            )
        else:
            self._bnd_elems = np.zeros(0, dtype=np.int64)
            self._bnd_fnodes = np.zeros((0, nfc), dtype=np.int64)
        #: the nodes that carry absorbing damping (the support of
        #: damping_diag); C_material_gradient_batch takes fields on them
        self.damped_nodes = np.unique(self._bnd_fnodes)
        self._bnd_fnodes_damped = np.searchsorted(
            self.damped_nodes, self._bnd_fnodes
        )
        self._bnd_node_plan = ScatterPlan(self._bnd_fnodes.ravel(), self.nnode)
        self._bnd_node_ones = np.ones(self._bnd_node_plan.nnz)
        self._bnd_elem_plan = ScatterPlan(self._bnd_elems, self.nelem)
        self._bnd_elem_ones = np.ones(self._bnd_elem_plan.nnz)
        self._conn_plan = ScatterPlan(self._conn_flat, self.nnode)
        self._conn_ones = np.ones(self._conn_plan.nnz)
        # the 3^d-point stencil: offsets with axis 0 slowest (so a row's
        # entries are in ascending column order) and their flat node
        # shifts; reference entry K_ref[i, j] couples corner i of every
        # element to its neighbor at offset o_j - o_i, so each corner
        # pair is one strided slice of the stencil table (see _assemble)
        offsets = np.array(list(itertools.product((-1, 0, 1), repeat=self.d)))
        strides = np.array(
            [int(np.prod(self.node_shape[a + 1:])) for a in range(self.d)]
        )
        self._shifts = offsets @ strides
        self._offsets = offsets
        self._center = len(offsets) // 2
        q_of = {tuple(o): q for q, o in enumerate(offsets.tolist())}
        corners = [[(k >> a) & 1 for a in range(self.d)] for k in range(nn)]
        self._corner_slices = [
            tuple(slice(c, c + n) for c, n in zip(o, self.shape))
            for o in corners
        ]
        self._pairs = [
            (i, q_of[tuple(b - a for a, b in zip(ci, cj))],
             float(self.K_ref[i, j]))
            for i, ci in enumerate(corners) for j, cj in enumerate(corners)
        ]
        # single-entry cache of the hoisted march invariants and the
        # step operator (see _march_coeffs): forward/adjoint/incremental
        # sweeps of one gradient or Hessian-vector evaluation share the
        # same iterate
        self._coeff_cache = None
        # single-entry caches for the clustered-LTS plan and its
        # per-level row sets (operators, coefficient slices) — one
        # forward model is marched many times on the same material
        # iterate
        self._lts_plan_cache = None
        self._lts_exec_cache = None

    # --------------------------------------------------------------- grid

    def _build_conn(self) -> np.ndarray:
        grids = np.meshgrid(
            *[np.arange(n) for n in self.shape], indexing="ij"
        )
        base = np.stack([g.ravel() for g in grids], axis=1)  # (nelem, d)
        nn = 1 << self.d
        conn = np.empty((self.nelem, nn), dtype=np.int64)
        for k in range(nn):
            corner = base + np.array(
                [(k >> a) & 1 for a in range(self.d)], dtype=np.int64
            )
            conn[:, k] = np.ravel_multi_index(
                tuple(corner.T), self.node_shape
            )
        return conn

    def node_coords(self) -> np.ndarray:
        """Physical node coordinates ``(nnode, d)`` (z down)."""
        grids = np.meshgrid(
            *[np.arange(n + 1) for n in self.shape], indexing="ij"
        )
        return np.stack([g.ravel() for g in grids], axis=1) * self.h

    def elem_centers(self) -> np.ndarray:
        grids = np.meshgrid(*[np.arange(n) for n in self.shape], indexing="ij")
        return (np.stack([g.ravel() for g in grids], axis=1) + 0.5) * self.h

    def node_index(self, multi: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(multi), self.node_shape))

    def surface_nodes(self) -> np.ndarray:
        """Node indices on the free surface (z = 0)."""
        idx = np.arange(self.nnode).reshape(self.node_shape)
        return idx[..., 0].ravel() if self.d >= 2 else idx

    def _boundary_face(self, axis: int, side: int):
        """(elem_ids, face_node_ids) of a boundary plane."""
        eidx = np.arange(self.nelem).reshape(self.shape)
        sl = [slice(None)] * self.d
        sl[axis] = 0 if side == 0 else self.shape[axis] - 1
        elems = eidx[tuple(sl)].ravel()
        local = [k for k in range(1 << self.d) if ((k >> axis) & 1) == side]
        return elems, self.conn[np.ix_(elems, local)]

    # ----------------------------------------------------------- operators

    @cached_property
    def _mask(self) -> np.ndarray:
        """``(nnode, 3^d)`` bool: the stencil entries whose neighbor
        lies inside the grid — the sparsity of every assembled row."""
        mask = np.ones((*self.node_shape, len(self._offsets)), dtype=bool)
        for q, delta in enumerate(self._offsets):
            for a, da in enumerate(delta):
                if da:
                    edge = [slice(None)] * self.d
                    edge[a] = 0 if da < 0 else -1
                    mask[(*edge, q)] = False
        return mask.reshape(self.nnode, -1)

    def _stencil_cols(self) -> np.ndarray:
        """``(nnode, 3^d)`` int32 column of every stencil entry (out of
        range where :attr:`_mask` is False)."""
        return (
            np.arange(self.nnode, dtype=np.int32)[:, None]
            + self._shifts.astype(np.int32)
        )

    @cached_property
    def _K_pattern(self):
        """int32 CSR ``(indptr, indices)`` of ``K``, built on first use."""
        return _csr_pattern(self._mask, self._stencil_cols())

    @cached_property
    def _S_pattern(self):
        """``(mask, indptr, indices)`` of the step operator: row ``i``
        is the ``x^{k-1}`` entry ``i`` followed by ``K``'s row ``i``
        shifted by ``nnode`` columns (see :meth:`_march_coeffs`)."""
        n = self.nnode
        mask = np.ones((n, 1 + len(self._shifts)), dtype=bool)
        mask[:, 1:] = self._mask
        cols = np.empty(mask.shape, dtype=np.int32)
        cols[:, 0] = np.arange(n)
        cols[:, 1:] = self._stencil_cols()
        cols[:, 1:] += n
        return (mask, *_csr_pattern(mask, cols))

    def _assemble(self, mu: np.ndarray, table: np.ndarray, col0: int = 0):
        """Accumulate ``K(mu)`` into columns ``col0 .. col0 + 3^d`` of a
        dense C-contiguous stencil table ``(nnode, width)``: entry
        ``[a, col0 + q]`` couples node ``a`` to node ``a + shift_q``.
        One strided add over the element grid per corner pair — within
        a pair no two elements touch the same entry."""
        coef = (np.asarray(mu, dtype=float) * self.h ** (self.d - 2)).reshape(
            self.shape
        )
        grid = table.reshape(*self.node_shape, table.shape[1])
        for i, q, kij in self._pairs:
            grid[(*self._corner_slices[i], col0 + q)] += kij * coef

    def bind_K(self, mu: np.ndarray) -> np.ndarray:
        """Assemble the stiffness for per-element ``mu``: the CSR data
        array (on the solver's one pattern) that :meth:`apply_K_bound`
        / :meth:`apply_K_rows` take.  Every time loop assembles once
        before it starts; handles of different materials (``mu`` and a
        perturbation ``dmu``) stay valid side by side."""
        table = np.zeros((self.nnode, len(self._shifts)))
        self._assemble(mu, table)
        return table[self._mask]

    def _K(self, K: np.ndarray) -> CSR:
        return CSR(*self._K_pattern, K, self.nnode)

    def apply_K_bound(
        self, K: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Stiffness action ``K u`` for a :meth:`bind_K` handle: one CSR
        product.

        ``u`` may be a single state ``(nnode,)`` or a scenario batch
        ``(nnode, B)`` (every column bit-identical to the serial
        apply).  Pass a preallocated ``out`` to make the call
        allocation-free.  The product indexes flat memory, so ``u``
        must be C-contiguous — checked here instead of silently copied
        (a copy would hide a full-state pass per call)."""
        u = np.asarray(u, dtype=float)
        if not u.flags.c_contiguous:
            raise ValueError(
                "u must be C-contiguous (copy strided views once at the "
                "call site, outside the time loop)"
            )
        if out is None:
            out = np.empty(u.shape)
        out.fill(0.0)
        return self._K(K).acc(u, out)

    def apply_K_rows(
        self, K: np.ndarray, rows: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``out[t] = K rows[t]`` over a stored history ``(T, nnode)``
        — or a shot-batched one ``(T, nnode, B)`` — one product per
        row; row ``t`` is bit-identical to ``apply_K_bound(K,
        rows[t])``."""
        A = self._K(K)
        out.fill(0.0)
        for t in range(len(rows)):
            A.acc(rows[t], out[t])
        return out

    def apply_K(
        self, mu: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Stiffness action ``K(mu) u`` for per-element ``mu`` — the
        cold-path convenience (assemble, then :meth:`apply_K_bound`)."""
        return self.apply_K_bound(self.bind_K(mu), u, out)

    def K_material_gradient_batch(
        self, u: np.ndarray, lam: np.ndarray
    ) -> np.ndarray:
        """Per-element ``sum_t lam^T (dK/dmu_e) u = h^{d-2} sum_t lam_e^T
        K_ref u_e``: ``u``/``lam`` have shape ``(nt, nnode)`` — or
        ``(nt, nnode, B)`` for shot batches, contracted over time *and*
        shots; returns the per-element sum.

        A stencil correlation: ``C_q[a] = sum_t lam[t, a] u[t, a +
        shift_q]`` for the ``3^d`` node offsets (one shifted-slice
        contraction each; entries whose neighbor wraps across a grid
        row are computed but never read), then ``g_e = h^{d-2} sum_ij
        K_ref[i, j] C_{q(i, j)}[c_i(e)]``, each corner pair one strided
        slice of ``C`` over the element grid.  Workspace is ``3^d``
        node vectors, whatever ``nt``."""
        spec = "tnb,tnb->n" if u.ndim == 3 else "tn,tn->n"
        n = self.nnode
        C = np.zeros((len(self._shifts), n))
        for q, s in enumerate(self._shifts):
            lo, hi = max(0, -s), n - max(0, s)
            np.einsum(spec, lam[:, lo:hi], u[:, lo + s : hi + s],
                      out=C[q, lo:hi])
        C = C.reshape(len(self._shifts), *self.node_shape)
        g = np.zeros(self.shape)
        for i, q, kij in self._pairs:
            g += kij * C[(q, *self._corner_slices[i])]
        return self.h ** (self.d - 2) * g.reshape(-1)

    def C_material_gradient_batch(
        self, w: np.ndarray, lam: np.ndarray, mu: np.ndarray
    ) -> np.ndarray:
        """Per-element ``sum_t lam^T (dC/dmu_e) w`` (nonzero only on
        absorbing boundary elements: ``dC/dmu_e = 0.5 sqrt(rho/mu_e) *
        lumping``) of fields given on :attr:`damped_nodes` only — a
        nodal history ``x`` enters as ``x[:, damped_nodes]``, the only
        entries the damping reads.

        ``w``/``lam`` may be ``(nt, n_damped)`` or shot-batched
        ``(nt, n_damped, B)`` (contracted over time, components *and*
        shots — the multi-shot gradient accumulation)."""
        mu = np.asarray(mu, dtype=float)
        g = np.zeros(self.nelem)
        if not len(self._bnd_elems):
            return g
        ww = self.h ** (self.d - 1) / (1 << (self.d - 1))
        fnodes = self._bnd_fnodes_damped
        dcdmu = 0.5 * np.sqrt(self.rho / mu[self._bnd_elems]) * ww
        if w.ndim == 3:
            contrib = np.einsum(
                "tsfb,tsfb->s", lam[:, fnodes], w[:, fnodes]
            )
        else:
            contrib = np.einsum("tsf,tsf->s", lam[:, fnodes], w[:, fnodes])
        self._bnd_elem_plan.scatter_acc(
            self._bnd_elem_ones, dcdmu * contrib, g
        )
        return g

    def damping_diag(self, mu: np.ndarray) -> np.ndarray:
        """Lumped absorbing damping: ``sqrt(rho mu_e) * h^{d-1} / 2^{d-1}``
        per face corner, accumulated over absorbing planes."""
        mu = np.asarray(mu, dtype=float)
        C = np.zeros(self.nnode)
        if not len(self._bnd_elems):
            return C
        w = self.h ** (self.d - 1) / (1 << (self.d - 1))
        c = np.sqrt(self.rho * mu[self._bnd_elems]) * w
        self._bnd_node_plan.scatter_acc(
            self._bnd_node_ones,
            np.repeat(c, self._bnd_fnodes.shape[1]),
            C,
        )
        return C

    def volume_damping_diag(self, alpha: np.ndarray) -> np.ndarray:
        """Lumped mass-proportional (Rayleigh ``alpha M``) attenuation:
        per-element damping ratios deposit ``alpha_e rho h^d / 2^d`` at
        each corner.  Linear in ``alpha`` (so its material derivative is
        the constant lumping stencil)."""
        alpha = np.asarray(alpha, dtype=float)
        nn = 1 << self.d
        w = self.rho * self.h**self.d / nn
        out = np.zeros(self.nnode)
        self._conn_plan.scatter_acc(
            self._conn_ones, np.repeat(alpha * w, nn), out
        )
        return out

    def alpha_material_gradient_batch(
        self, w_field: np.ndarray, adj: np.ndarray
    ) -> np.ndarray:
        """Per-element ``sum_t adj^T (dC/dalpha_e) w`` for time-batched
        nodal fields ``(nt, nnode)`` or shot batches ``(nt, nnode, B)``."""
        nn = 1 << self.d
        lump = self.rho * self.h**self.d / nn
        spec = "tefb,tefb->e" if adj.ndim == 3 else "tef,tef->e"
        contrib = np.einsum(
            spec, adj[:, self.conn], w_field[:, self.conn]
        )
        return lump * contrib

    def damping_diag_perturbation(
        self, mu: np.ndarray, dmu: np.ndarray
    ) -> np.ndarray:
        """Directional derivative of :meth:`damping_diag`:
        ``(dC/dmu) dmu`` as a nodal diagonal."""
        mu = np.asarray(mu, dtype=float)
        dmu = np.asarray(dmu, dtype=float)
        out = np.zeros(self.nnode)
        if not len(self._bnd_elems):
            return out
        w = self.h ** (self.d - 1) / (1 << (self.d - 1))
        e = self._bnd_elems
        dc = 0.5 * np.sqrt(self.rho / mu[e]) * w * dmu[e]
        self._bnd_node_plan.scatter_acc(
            self._bnd_node_ones,
            np.repeat(dc, self._bnd_fnodes.shape[1]),
            out,
        )
        return out

    # ---------------------------------------------------------- leapfrog

    def stable_dt(self, mu: np.ndarray, *, safety: float = 0.5) -> float:
        vmax = float(np.sqrt(np.max(mu) / self.rho))
        return safety * self.h / (vmax * np.sqrt(self.d))

    def _cached(self, slot: str, plan, mu, dt: float, alpha, build):
        """Single-entry cache ``slot`` keyed on ``(plan, mu, dt,
        alpha)``: the forward, adjoint and incremental sweeps of one
        gradient or Gauss-Newton Hv evaluation march the *same*
        iterate, so they share one assembly.  On a miss, ``build(mu,
        C)`` runs with the iterate's damping diagonal ``C`` (absorbing
        plus, given ``alpha``, mass-proportional)."""
        mu = np.asarray(mu, dtype=float)
        alpha = None if alpha is None else np.asarray(alpha, dtype=float)
        c = getattr(self, slot)
        if (
            c is not None
            and c[0] is plan
            and c[2] == dt
            and np.array_equal(c[1], mu)
            and (c[3] is None) == (alpha is None)
            and (alpha is None or np.array_equal(c[3], alpha))
        ):
            return c[4]
        C = self.damping_diag(mu)
        if alpha is not None:
            C = C + self.volume_damping_diag(alpha)
        out = build(mu, C)
        setattr(self, slot, (
            plan, mu.copy(), dt, None if alpha is None else alpha.copy(), out
        ))
        return out

    def _march_coeffs(self, mu, dt: float, alpha):
        """``(inv_a_plus, S)``: the inverse LHS diagonal (it scales the
        forcing) and the step operator

            ``S = [ -A+^{-1} A- | A+^{-1} (2M - dt^2 K) ]``  (n x 2n)

        that takes the stacked pair ``[x^{k-1}; x^k]`` to ``x^{k+1}`` in
        one CSR product, from the :func:`~repro.solver.wave_solver.
        restrict` row set of every node (``-A+^{-1} A-`` is ``inv_A_bar
        * prev_coef``).  Cached on ``(mu, dt, alpha)``."""

        def build(mu, C):
            co = restrict(self.m, C, dt)
            # row i of S as a stencil table: [x^{k-1}_i | K's row i]
            table = np.zeros((self.nnode, 1 + len(self._shifts)))
            self._assemble(mu, table, col0=1)
            step = table[:, 1:]
            step *= -co["c_ku"]
            step[:, self._center] += co["c_u"]
            step *= co["inv_A_bar"][:, None]
            table[:, 0] = co["inv_A_bar"] * co["prev_coef"]
            mask, indptr, indices = self._S_pattern
            S = CSR(indptr, indices, table[mask], 2 * self.nnode)
            return co["inv_A_bar"], S

        return self._cached("_coeff_cache", None, mu, dt, alpha, build)

    # ----------------------------------------------- local time stepping

    def lts_plan(self, mu: np.ndarray, *, max_rate: int = DEFAULT_MAX_RATE
                 ) -> LTSPlan:
        """Clustered-LTS plan for material ``mu``: per-element stable
        steps (uniform ``h``, wave speed ``sqrt(mu_e/rho)``) binned
        into power-of-two rate clusters and 2-to-1 smoothed.  Cached on
        the material iterate (the inverse sweeps re-march one ``mu``
        many times)."""
        mu = np.asarray(mu, dtype=float)
        c = self._lts_plan_cache
        if c is not None and c[1] == max_rate and np.array_equal(c[0], mu):
            return c[2]
        limits = elem_stable_dt(
            np.full(self.nelem, self.h), np.sqrt(mu / self.rho),
            safety=1.0, dim=self.d,
        )
        plan = build_lts_plan(
            self.conn, self.nnode, dt=0.0, elem_dt=limits, max_rate=max_rate
        )
        self._lts_plan_cache = (mu.copy(), max_rate, plan)
        return plan

    def _lts_exec(self, plan, mu, dt, alpha):
        """The :func:`~repro.solver.wave_solver.cluster_levels` of the
        clustered march: the level's stiffness step — the own rows of the
        global ``K(mu)``, each row's entries in the global stored
        order, columns renumbered **level-local** (``ncols =
        len(local_nodes)``: every element touching an own node is in
        ``lv.elems``, so the cluster's nodes hold every column) — and
        the :func:`~repro.solver.wave_solver.restrict` row set of its
        own nodes at the cluster step ``dt_c = r dt``, with ``dtc2 =
        r^2`` (the forcing arrives ``dt^2``-prescaled).  Cached on
        ``(plan, mu, dt, alpha)``."""

        def build(mu, C):
            table = np.zeros((self.nnode, len(self._shifts)))
            self._assemble(mu, table)
            shifts = self._shifts.astype(np.int32)

            def operator(lv, g2l, n_local):
                own = lv.own_nodes
                rows = self._mask[own]
                # out-of-grid entries are clipped, then masked away
                local_cols = np.take(
                    g2l, own.astype(np.int32)[:, None] + shifts, mode="clip"
                )
                return _LevelStiffness(CSR(
                    *_csr_pattern(rows, local_cols), table[own][rows], n_local
                ))

            return cluster_levels(
                plan, operator,
                lambda lv, local: {
                    **restrict(self.m, C, lv.rate * dt, rows=lv.own_nodes),
                    "dtc2": float(lv.rate) ** 2,
                },
            )

        return self._cached("_lts_exec_cache", plan, mu, dt, alpha, build)

    def march(
        self,
        mu: np.ndarray,
        forcing: Callable[[int], np.ndarray | None],
        nsteps: int,
        dt: float,
        *,
        store: bool = True,
        x0: np.ndarray | None = None,
        x1: np.ndarray | None = None,
        alpha: np.ndarray | None = None,
        batch: int | None = None,
        checkpoint: CheckpointManager | None = None,
        resume: bool = False,
        faults=None,
        health_interval: int = 0,
        lts: int | bool | LTSPlan | None = None,
    ) -> np.ndarray | None:
        """Run the leapfrog ``A+ x^{k+1} = (2M - dt^2 K) x^k - A- x^{k-1}
        + f^k``; ``forcing(k)`` supplies ``f^k`` (may be None).  Each
        step is one product of the step operator (:meth:`_march_coeffs`)
        with the pair ``[x^{k-1}; x^k]``, plus ``A+^{-1} f^k`` when the
        forcing is live.

        Starts from rest unless initial states ``(x0, x1)`` are given:
        a march restarted from rows ``(x^s, x^{s+1})`` of a history with
        ``forcing(k + s)`` returns its rows ``s ..`` bit for bit (the
        segments of a checkpointed gradient).  ``alpha`` adds
        per-element mass-proportional attenuation.  Returns the state
        history ``(nsteps + 1, nnode)`` when ``store``, else the final
        two states stacked as ``(2, nnode)``.

        ``batch=B`` advances ``B`` scenarios at once: states are
        ``(nnode, B)`` column blocks, ``forcing(k)`` returns
        ``(nnode, B)`` (or None), initial states are 2D, and the
        history gains a trailing batch axis.  All B columns share one
        leapfrog loop — one multi-vector product per step instead of B
        — and every column is bit-identical to the corresponding
        serial march (same summation orders throughout; see
        :func:`batched_forcing` for stacking per-scenario forcings).
        ``batch`` may also be inferred from a 2D ``x0``/``x1``.

        Resilience (all opt-in, default off — the inverse sweeps call
        march thousands of times): ``checkpoint`` durably snapshots the
        restart pair (and the stored-history prefix) on the manager's
        cadence; ``resume=True`` restarts from the latest valid
        snapshot, bit-identical to the uninterrupted march.
        ``health_interval`` arms the NaN/Inf sentinel; ``faults`` takes
        a :class:`~repro.resilience.FaultPlan` (state poisoning).

        ``lts`` (a max-rate cap, True, or an :class:`LTSPlan`) marches
        the clustered schedule instead: the levels of
        :meth:`_lts_exec` drain
        :func:`~repro.solver.wave_solver.march_clustered`, the elastic
        solver's one clustered loop, and the final ``(2, nnode)`` pair
        is returned (from rest, ``store=False``; ``nsteps`` a multiple
        of the coarsest rate).  Unlike the global march — which posits
        ``x^1 = 0`` and starts at ``k = 1`` — every level takes its
        first step at index 0, so ``forcing(0)`` is applied; sources
        quiet at ``t = 0`` (the standard case) see identical startups.
        Faults, the sentinel and checkpoints act at sync boundaries
        only, and a resume restarts from one bit-identically.
        """
        # all nodes must be synchronized when the march ends, so the
        # coarsest rate must divide nsteps: cap by the largest power of
        # two that does (every one divides a 0-step march)
        plan = resolve(lts, lambda cap: self.lts_plan(
            mu, max_rate=min(cap, nsteps & -nsteps or cap)
        ))
        if plan is not None:
            if store or x0 is not None or x1 is not None:
                raise ValueError(
                    "lts marches run from rest with store=False (no "
                    "history storage or initial states)"
                )
            if nsteps % plan.max_rate:
                raise ValueError(
                    f"nsteps = {nsteps} must be a multiple of the coarsest "
                    f"cluster rate {plan.max_rate} so the march ends "
                    "synchronized"
                )
        frame = MarchFrame(
            nsteps, stride=1 if plan is None else plan.max_rate,
            checkpoint=checkpoint, faults=faults,
            health_interval=health_interval, field="x",
        )
        if plan is not None:
            levels = self._lts_exec(plan, mu, dt, alpha)
            flops = CategoryCounter()
            with telemetry.span("scalar.march_lts") as _m:
                pair, fired = drain(march_clustered(
                    levels, forcing, frame,
                    () if batch is None else (int(batch),),
                    count=flops.add, resume={"latest": resume},
                ))
                for lev, n in zip(levels, fired):
                    _m.add(f"fired_r{lev['rate']}", n)
                _m.add("flops", flops.total)
            return pair
        if batch is None and x0 is not None and np.ndim(x0) == 2:
            batch = np.shape(x0)[1]
        if batch is None and x1 is not None and np.ndim(x1) == 2:
            batch = np.shape(x1)[1]
        shape = (self.nnode,) if batch is None else (self.nnode, int(batch))
        inv_a_plus, S = self._march_coeffs(mu, dt, alpha)
        if batch is not None:  # broadcast as a column over all B
            inv_a_plus = inv_a_plus[:, None]
        # the stored history *is* the state window: rows k-1, k are the
        # contiguous pair S takes; without a history, a _WINDOW-row one
        # (per-call, so march stays reentrant; nothing allocated per step)
        hist = np.zeros((nsteps + 1, *shape)) if store else None
        win = hist if store else np.zeros((_WINDOW, *shape))
        for row, xi in enumerate((x0, x1)):
            if xi is not None:
                xi = np.asarray(xi, dtype=float)
                if xi.shape != shape:
                    raise ValueError(
                        f"initial state must be {shape}, got {xi.shape}"
                    )
                win[row] = xi
        fk = np.empty(shape)  # A+^{-1} f^k
        i = 1  # window row of x^k

        def snapshot(s):
            j = s if store else i
            rec = {"x_prev": win[j - 1], "x": win[j]}
            if store:
                rec["hist"] = hist[: s + 1]
            return rec

        k0 = frame.resume(snapshot, k0=1, latest=resume)
        if store:
            i = k0
        # one span per march (not per step: the inverse sweeps call
        # march thousands of times); flops attributed in aggregate
        with telemetry.span("scalar.march") as _m:
            for k in range(k0, nsteps):
                if i + 1 == len(win):  # only a window fills up
                    win[:2] = win[i - 1 : i + 1]
                    i = 1
                f = forcing(k)
                x_next = win[i + 1]
                if not store:  # a reused row (history rows start zeroed)
                    x_next.fill(0.0)
                S.acc(win[i - 1 : i + 1].reshape(-1, *shape[1:]), x_next)
                if f is not None:
                    np.multiply(f, inv_a_plus, out=fk)
                    np.add(x_next, fk, out=x_next)
                i += 1
                # rows i-1, i are now x^k, x^{k+1} — the restart pair
                frame.boundary(k + 1, x_next, snapshot)
            napply = max(nsteps - k0, 0)
            _m.add("steps", napply)
            _m.add("flops", napply * 2 * S.nnz * int(np.prod(shape[1:])))
        if store:
            return hist
        return np.stack([win[i - 1], win[i]])


def batched_forcing(
    columns: Sequence[Callable[[int], np.ndarray | None] | None],
    nnode: int,
) -> Callable[[int], np.ndarray | None]:
    """Stack per-scenario ``forcing(k)`` callables into the single
    ``(nnode, B)`` block forcing a batched :meth:`march` consumes.

    A scenario whose callable is None (or returns None at a step)
    contributes a zero column — adding zero leaves the other columns'
    trajectories bit-identical to their serial runs (``np.array_equal``;
    a ``-0.0`` may flip sign bit, which compares equal).  The block
    buffer is reused across steps, matching march's read-only forcing
    contract."""
    cols = list(columns)
    B = len(cols)
    buf = np.zeros((nnode, B))
    col_live = np.zeros(B, dtype=bool)  # column nonzero in buf

    def forcing(k: int) -> np.ndarray | None:
        live = False
        for b, fn in enumerate(cols):
            f = None if fn is None else fn(k)
            if f is None:
                # zero the column once on the live -> quiet transition,
                # then skip the fill while the source stays silent
                if col_live[b]:
                    buf[:, b] = 0.0
                    col_live[b] = False
            else:
                buf[:, b] = f
                col_live[b] = True
                live = True
        return buf if live else None

    return forcing
