"""The 2D antiplane fault source (paper eq. 3.1, Figure 3.1).

The seismic source is a dipole along the fault:
``f = -div( mu u0 g(t; t0, T) delta(Sigma) n )``.  We place the fault
on the vertical midline of one column of wave elements (so the shape
function gradients are single-valued on it); each fault element ``s``
(one per depth cell in the rupture range) carries its own dislocation
amplitude ``u0_s``, rise time ``t0_s``, and delay time ``T_s``.

The weak form over a fault segment of length ``h`` inside element ``e``
gives nodal forces ``b_i = mu_e u0 g(t) * h * dN_i/dx(center)`` — i.e.
``+- mu_e u0 g / 2`` on the two element sides.  The source therefore
depends on the *material* too, and the adjoint gradient keeps that
coupling (the ``u0 g delta(Sigma) grad lam . n`` term of the paper's
material equation 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend.sparse_ops import ScatterPlan
from repro.solver.scalarwave import RegularGridScalarWave
from repro.sources.slip import dslip_dT, dslip_dt0, slip_function


@dataclass
class SourceParams:
    """Per-fault-element source fields (the unknowns of Fig 3.3)."""

    u0: np.ndarray
    t0: np.ndarray
    T: np.ndarray

    def copy(self) -> "SourceParams":
        return SourceParams(self.u0.copy(), self.t0.copy(), self.T.copy())

    def pack(self) -> np.ndarray:
        return np.concatenate([self.u0, self.t0, self.T])

    @staticmethod
    def unpack(x: np.ndarray) -> "SourceParams":
        n = len(x) // 3
        return SourceParams(x[:n].copy(), x[n : 2 * n].copy(), x[2 * n :].copy())


class FaultLineSource2D:
    """Vertical fault through a 2D antiplane wave grid.

    Parameters
    ----------
    solver:
        The 2D :class:`RegularGridScalarWave`.
    ix:
        x-index of the element column holding the fault midline.
    jz:
        Depth element indices covered by the rupture (e.g.
        ``range(8, 16)``).
    """

    def __init__(self, solver: RegularGridScalarWave, ix: int, jz):
        if solver.d != 2:
            raise ValueError("FaultLineSource2D is for 2D grids")
        self.solver = solver
        self.ix = int(ix)
        self.jz = np.asarray(list(jz), dtype=np.int64)
        self.ns = len(self.jz)
        # element ids of the fault segments
        self.elems = np.ravel_multi_index(
            (np.full(self.ns, self.ix), self.jz), solver.shape
        )
        # nodal weight pattern: h * dN/dx at the element center is
        # -1/(2h) on the x-min corners and +1/(2h) on the x-max corners,
        # times segment length h -> +-1/2
        self.nodes = solver.conn[self.elems]  # (ns, 4)
        self.w = np.array([-0.5, 0.5, -0.5, 0.5])  # corner order: bit0 = x
        #: the fault's distinct nodes, and the planned scatter summing
        #: each node's (segment, corner) slots in slot order — the
        #: accumulation order of ``np.add.at`` over ``nodes.ravel()``
        self.unodes, inv = np.unique(self.nodes.ravel(), return_inverse=True)
        self._slot_plan = ScatterPlan(inv, len(self.unodes))
        self._slot_ones = np.ones(self._slot_plan.nnz)

    @property
    def depths(self) -> np.ndarray:
        """Physical depth of each fault-segment center."""
        return (self.jz + 0.5) * self.solver.h

    def hypocentral_params(
        self, hypo_j: int, rupture_velocity: float, u0: float, t0: float
    ) -> SourceParams:
        """Constant-slip scenario: ``T_s`` from rupture distance."""
        dist = np.abs(self.jz - hypo_j) * self.solver.h
        return SourceParams(
            u0=np.full(self.ns, float(u0)),
            t0=np.full(self.ns, float(t0)),
            T=dist / float(rupture_velocity),
        )

    # ----------------------------------------------------------- forcing

    def _nodal_rows(self, amp: np.ndarray, dt: float) -> np.ndarray:
        """``dt^2``-scaled nodal forces of segment amplitudes ``amp``
        ``(nt, ns)`` at the distinct fault nodes: ``(nt, len(unodes))``."""
        slots = (amp.T[:, None, :] * self.w[None, :, None]).reshape(
            -1, len(amp)
        ) * dt**2
        out = np.zeros((len(self.unodes), len(amp)))
        self._slot_plan.scatter_acc(self._slot_ones, slots, out)
        return out.T

    def forcing_rows(
        self, mu_e: np.ndarray, p: SourceParams, ks: np.ndarray, dt: float
    ) -> np.ndarray:
        """``dt^2 b^k(mu)`` at the distinct fault nodes ``unodes`` for
        the steps ``ks``: ``(len(ks), len(unodes))``.  ``b`` is linear
        in ``mu``, so ``forcing_rows(dmu_e, ...)`` is ``dt^2 (db/dmu)
        dmu``, the fault term of the incremental forcing."""
        g = slip_function(ks[:, None] * dt, p.T, p.t0)
        return self._nodal_rows(mu_e[self.elems] * p.u0 * g, dt)

    def _tabulated(self, rows):
        """``forcing(k)`` closure for :meth:`RegularGridScalarWave.march`
        from a rule ``rows(ks)`` giving the nodal forces of the steps
        ``ks`` at ``unodes``.  The slip functions are evaluated once
        over all steps (the table doubles if a march runs past it) and
        every call copies one row into a reused nodal buffer — march
        only reads it."""
        buf = np.zeros(self.solver.nnode)
        table = np.zeros((0, len(self.unodes)))

        def f(k: int) -> np.ndarray:
            nonlocal table
            have = len(table)
            if k >= have:
                ks = np.arange(have, max(k + 1, 2 * have, 256))
                table = np.vstack([table, rows(ks)])
            buf[self.unodes] = table[k]
            return buf

        return f

    def forcing(self, mu_e: np.ndarray, p: SourceParams, dt: float):
        """``forcing(k)`` callable for :meth:`RegularGridScalarWave.march`
        (includes the ``dt^2`` factor)."""
        return self._tabulated(lambda ks: self.forcing_rows(mu_e, p, ks, dt))

    def perturbation_rows(
        self, mu_e: np.ndarray, p: SourceParams, dp: SourceParams,
        ks: np.ndarray, dt: float,
    ) -> np.ndarray:
        """``dt^2 (db^k/dp) dp`` at ``unodes`` for the steps ``ks`` —
        the incremental forcing of a source perturbation, laid out like
        :meth:`forcing_rows`."""
        mu_s = mu_e[self.elems]
        t = ks[:, None] * dt
        g = slip_function(t, p.T, p.t0)
        amp = (
            mu_s * dp.u0 * g
            + mu_s * p.u0 * dslip_dt0(t, p.T, p.t0) * dp.t0
            + mu_s * p.u0 * dslip_dT(t, p.T, p.t0) * dp.T
        )
        return self._nodal_rows(amp, dt)

    # --------------------------------------------------------- adjoints

    def material_gradient_batch(
        self, lam_batch: np.ndarray, p: SourceParams, times: np.ndarray
    ) -> np.ndarray:
        """Time-batched ``sum_t lam^T db/dmu_e``: ``lam_batch`` is
        ``(nt, nnode)``, ``times`` the matching source times."""
        proj = np.einsum(
            "tsf,f->ts", lam_batch[:, self.nodes], self.w
        )  # (nt, ns)
        g = slip_function(times[:, None], p.T[None, :], p.t0[None, :])
        amp = np.sum(proj * p.u0[None, :] * g, axis=0)
        out = np.zeros(self.solver.nelem)
        np.add.at(out, self.elems, amp)
        return out
