"""Explicit octree hexahedral elastic wave solver (paper eq. 2.4-2.5).

The semi-discrete system is

    ``M u'' + (C_AB + alpha M + beta K) u' + (K + K_AB) u = b``

with lumped mass ``M``, Rayleigh coefficients ``(alpha, beta)`` (one
scalar pair: the target damping ratio is uniform), and Stacey absorbing
boundary matrices ``C_AB`` (lumped) and ``K_AB`` (sparse ``c1``
coupling).  Central differences
with the diagonal/off-diagonal splitting of eq. (2.4) give the explicit
update; hanging-node continuity is restored each step by the projection
``B^T A B ubar = B^T b`` of eq. (2.5), which preserves diagonality.

Per step the solver performs one stiffness matvec — attenuation reuses
it, ``beta K u = beta * (K u)``, with the previous step's ``K u``
cached — a sparse boundary product, and vector updates: work linear in
the number of grid points, as the paper requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.backend import spmv_acc, spmv_into
from repro.fem.assembly import ElasticOperator, lumped_mass
from repro.fem.damping import rayleigh_coefficients
from repro.io.seismogram import ReceiverArray, Seismograms
from repro.io.snapshots import SnapshotRecorder
from repro.mesh.hanging import HangingNodeInfo, build_constraints
from repro.mesh.hexmesh import HexMesh
from repro.octree.linear_octree import LinearOctree
from repro.physics.cfl import elem_stable_dt, stable_timestep
from repro.physics.elastic import lame_from_velocities
from repro.physics.stacey import stacey_boundary_matrices, stacey_coefficients
from repro.resilience import (
    DEFAULT_HEALTH_INTERVAL,
    check_finite,
    should_check,
    sync_check_due,
    validate_cfl,
)
from repro.solver.checkpoint import CheckpointManager
from repro.solver.lts import (
    DEFAULT_MAX_RATE,
    LTSPlan,
    build_lts_plan,
    constraint_groups,
)
from repro.util.flops import FlopCounter

from repro import telemetry

#: absorbing boundary planes: all four sides plus the bottom;
#: the free surface is (2, 0) — the z = 0 plane
DEFAULT_ABSORBING = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1))


def _ku_prev_from(ck, key: str) -> np.ndarray:
    """The cached ``K u^{k-1}`` a damped resume needs.  Snapshots from
    before the Rayleigh term became ``beta * (K u)`` carry the
    ``beta``-scaled product under ``kb_*`` keys; they are refused, not
    rescaled."""
    if key not in ck.arrays:
        raise ValueError(
            f"checkpoint for step {ck.step} has no {key!r}: it was "
            "written by an undamped run or in the old 'kb_u_prev' / "
            "'kb_prev_<i>' format, and cannot resume a damped run"
        )
    return ck.arrays[key]


class ElasticWaveSolver:
    """Explicit elastodynamics on an octree hexahedral mesh.

    Parameters
    ----------
    mesh / tree:
        The mesh and the balanced octree it came from (for constraints
        and source location).
    material:
        Object with ``query(points_m) -> (vs, vp, rho)``.
    damping_ratio:
        Target Rayleigh damping ratio (0 disables attenuation).
    damping_band:
        ``(f_min, f_max)`` Hz band for the least-squares Rayleigh fit.
    absorbing:
        Iterable of ``(axis, side)`` absorbing planes.
    stacey_c1:
        Include the tangential-derivative ``c1`` terms of Stacey's
        condition (False = Lysmer viscous boundary).
    dt:
        Time step; defaults to the CFL-stable step.
    constraints:
        Precomputed :class:`HangingNodeInfo` (else built here).
    """

    def __init__(
        self,
        mesh: HexMesh,
        tree: LinearOctree,
        material,
        *,
        damping_ratio: float = 0.0,
        damping_band: tuple[float, float] = (0.1, 1.0),
        absorbing: Sequence[tuple[int, int]] = DEFAULT_ABSORBING,
        stacey_c1: bool = True,
        dt: float | None = None,
        cfl_safety: float = 0.5,
        constraints: HangingNodeInfo | None = None,
        lts: int | bool = 0,
    ):
        self.mesh = mesh
        self.tree = tree
        vs, vp, rho = material.query(mesh.elem_centers)
        lam, mu = lame_from_velocities(vs, vp, rho)
        self.lam, self.mu, self.rho = lam, mu, rho
        self.vs, self.vp = np.asarray(vs, float), np.asarray(vp, float)
        h = mesh.elem_h

        self.K = ElasticOperator(mesh.conn, h, lam, mu, mesh.nnode)
        self.m = lumped_mass(mesh.conn, h, rho, mesh.nnode)  # (nnode,)

        # Rayleigh attenuation: one least-squares (alpha, beta) over the
        # band.  The ratio is uniform, so beta K u = beta * (K u) and
        # the time loops need no second operator.
        if damping_ratio > 0:
            alpha, beta = rayleigh_coefficients(
                float(damping_ratio), *damping_band
            )
            self.alpha, self.beta = float(alpha), float(beta)
            #: hoisted out of the time loop: the diagonal is a full
            #: O(nelem) scatter, constant across steps
            self.Kb_diag = self.beta * self.K.diagonal()
        else:
            self.alpha = self.beta = 0.0
            self.Kb_diag = None
        self.m_alpha = self.alpha * self.m

        # Stacey absorbing boundaries
        faces = []
        for axis, side in absorbing:
            idx, fnodes = mesh.boundary_faces(axis, side)
            coeffs = stacey_coefficients(lam[idx], mu[idx], rho[idx])
            faces.append((fnodes, mesh.elem_h[idx], axis, side, coeffs))
        self.C_diag, self.K_AB = stacey_boundary_matrices(
            faces, mesh.nnode, include_c1=stacey_c1
        )
        self._has_kab = self.K_AB.nnz > 0

        # hanging-node constraints
        self.constraints = (
            constraints
            if constraints is not None
            else build_constraints(tree, mesh)
        )
        B = self.constraints.B
        self.B = B.tocsr()
        self.BT = B.T.tocsr()

        self.dt = dt if dt is not None else stable_timestep(
            h, vp, safety=cfl_safety
        )
        dt_ = self.dt
        # LHS diagonal of eq. (2.4)
        A = (self.m + 0.5 * dt_ * self.m_alpha)[:, None] + 0.5 * dt_ * self.C_diag
        if self.Kb_diag is not None:
            A = A + 0.5 * dt_ * self.Kb_diag
        self.A = A
        # row-sum (lumped) projection of the diagonal LHS: hanging-node
        # mass is distributed to the masters by the constraint weights,
        # which conserves mass and "preserves the diagonality of A"
        self.A_bar = self.BT @ A
        self._inv_A_bar = 1.0 / self.A_bar
        # c1 coupling pre-scaled by -dt^2 so the time loop accumulates
        # it into the residual with one sparse product, no temporaries
        self._K_AB_mdt2 = (self.K_AB * (-(dt_**2))).tocsr()
        self.flops = FlopCounter()
        #: default clustered-LTS setting for run/run_batch: 0/False =
        #: global dt, True = LTS at DEFAULT_MAX_RATE, an int = the
        #: max-rate cap (power of two)
        self.lts = lts
        self._lts_plan_cache = None
        self._lts_exec_cache = None

    @property
    def nnode(self) -> int:
        return self.mesh.nnode

    @property
    def _update_flops_per_node(self) -> int:
        """Counted vector work of one update: 12 per node, plus the
        ``2 * 3`` scalar operations of the cached Rayleigh term."""
        return 18 if self.beta else 12

    def _residual_coefs(self, dt: float, own=slice(None)):
        """Coefficients of ``u``, ``K u`` and the cached ``K u^{prev}``
        in the residual of a step of size ``dt`` (rows ``own``):
        ``2M + (dt/2) beta diag K``, ``dt^2 + (dt/2) beta`` and
        ``(dt/2) beta`` — Rayleigh ``beta K u`` is ``beta * (K u)``, so
        one matvec serves the stiffness and the damping term.  Shared
        by all four loops, which apply them in the same order."""
        hd = 0.5 * dt
        c_u = 2.0 * self.m[own][:, None]
        if self.Kb_diag is not None:
            c_u = c_u + hd * self.Kb_diag[own]
        return c_u, dt * dt + hd * self.beta, hd * self.beta

    def memory_bytes(self) -> int:
        """Solver working-set estimate (the paper's ~10x hex-vs-tet
        memory claim is measured from this and the tet counterpart):
        everything the solver actually holds — connectivity, kernel
        workspace, state/force/scratch buffers, LHS diagonals, and the
        sparse boundary/constraint structures."""
        n = 0
        n += self.mesh.conn.nbytes
        n += 8 * (2 * self.mesh.nelem)  # material coefficient vectors
        n += self.K.workspace_bytes()  # gather/scatter plan + buffers
        # time-loop vectors: u_prev, u, u_next, r, Ku, tmp, fbuf
        nvec = 7
        if self.Kb_diag is not None:
            n += self.Kb_diag.nbytes
            nvec += 1  # the cached K u^{k-1}
        n += 8 * 3 * self.nnode * nvec
        n += self.m.nbytes + self.m_alpha.nbytes
        n += self.A.nbytes + self.A_bar.nbytes + self._inv_A_bar.nbytes
        n += self.C_diag.nbytes
        for S in (self.K_AB, self._K_AB_mdt2, self.B, self.BT):
            n += S.data.nbytes + S.indices.nbytes + S.indptr.nbytes
        n += 8 * 3 * self.A_bar.shape[0]  # projected residual buffer
        return n

    # ----------------------------------------------- local time stepping

    def lts_plan(self, *, max_rate: int = DEFAULT_MAX_RATE) -> LTSPlan:
        """Clustered-LTS plan for this solver's mesh/material: the
        per-element stable steps are binned into power-of-two rate
        clusters, 2-to-1 smoothed, with hanging-node constraint
        closures clamped to a common rate (the projection then splits
        into independent per-level blocks)."""
        c = self._lts_plan_cache
        if c is not None and c[0] == max_rate:
            return c[1]
        plan = build_lts_plan(
            self.mesh.conn,
            self.nnode,
            dt=self.dt,
            elem_dt=elem_stable_dt(self.mesh.elem_h, self.vp, safety=1.0),
            max_rate=max_rate,
            groups=constraint_groups(self.constraints.masters),
        )
        self._lts_plan_cache = (max_rate, plan)
        return plan

    def _lts_exec(self, plan: LTSPlan) -> list[dict]:
        """Static per-level execution state for the clustered loop: a
        stiffness operator over the cluster's elements (own +
        one-coarser halo), the cluster-step diagonals and residual
        coefficients restricted to its own nodes, the per-level
        hanging-node projection block, and the own-row slice of the
        Stacey ``c1`` coupling prescaled by ``-dt_c^2``.  Cached on the
        plan object."""
        c = self._lts_exec_cache
        if c is not None and c[0] is plan:
            return c[1]
        conn, h = self.mesh.conn, self.mesh.elem_h
        # bar (independent) dof -> rate of its constraint closure; the
        # closures are rate-clamped, so each bar column's support lives
        # entirely inside one level
        col_rate = plan.node_rate[self.constraints.independent]
        levels = []
        for lv in plan.levels:
            e = lv.elems
            own = lv.own_nodes
            dtc = lv.rate * self.dt
            K_c = ElasticOperator(
                conn[e], h[e], self.lam[e], self.mu[e], self.nnode
            )
            A_c = (self.m[own] + 0.5 * dtc * self.m_alpha[own])[:, None] \
                + 0.5 * dtc * self.C_diag[own]
            if self.Kb_diag is not None:
                A_c = A_c + 0.5 * dtc * self.Kb_diag[own]
            c_u, c_ku, c_kup = self._residual_coefs(dtc, own)
            cols = np.nonzero(col_rate == lv.rate)[0]
            B_c = self.B[own][:, cols].tocsr()
            BT_c = B_c.T.tocsr()
            own_dofs = (own[:, None] * 3 + np.arange(3)).ravel()
            kab = (self.K_AB[own_dofs] * (-(dtc * dtc))).tocsr()
            levels.append(
                {
                    "rate": lv.rate,
                    "dtc": dtc,
                    "dtc2": dtc * dtc,
                    "own": own,
                    "interp": lv.interp_nodes,
                    "K": K_c,
                    "c_u": c_u,
                    "c_ku": c_ku,
                    "c_kup": c_kup,
                    "prev_coef": (0.5 * dtc * self.m_alpha[own]
                                  - self.m[own])[:, None]
                    + 0.5 * dtc * self.C_diag[own],
                    "B": B_c,
                    "BT": BT_c,
                    "inv_A_bar": 1.0 / (BT_c @ A_c),
                    "kab": kab if kab.nnz else None,
                }
            )
        self._lts_exec_cache = (plan, levels)
        return levels

    @staticmethod
    def _lts_receiver_slots(levels: list[dict], receivers) -> list[tuple]:
        """Per-level receiver membership: each receiver node is owned
        by exactly one level; returns ``(receiver idx, position of the
        node inside the level's own-node array)`` pairs per level."""
        slots = []
        for lev in levels:
            own = lev["own"]
            nodes = receivers.nodes
            pos = np.searchsorted(own, nodes)
            pos_c = np.minimum(pos, max(len(own) - 1, 0))
            mask = (pos < len(own)) & (own[pos_c] == nodes)
            ridx = np.nonzero(mask)[0]
            slots.append((ridx, pos[ridx]))
        return slots

    @staticmethod
    def _lts_fill_receiver_gaps(data, levels, slots, nsteps: int) -> None:
        """Receivers owned by a coarse cluster are sampled at its own
        cadence; linearly interpolate the unrecorded columns so every
        trace comes back on the fine-step time axis."""
        cols = np.arange(nsteps, dtype=float)
        for lev, (ridx, _) in zip(levels, slots):
            rate = lev["rate"]
            if rate == 1 or not len(ridx):
                continue
            filled = np.arange(0, nsteps, rate)
            fcols = filled.astype(float)
            for i in ridx:
                for comp in range(data.shape[1]):
                    data[i, comp, :] = np.interp(
                        cols, fcols, data[i, comp, filled]
                    )

    def _lts_dispatch(self, lts, t_end: float) -> tuple[LTSPlan | None, int]:
        """Resolve the effective LTS setting for a run: returns the
        non-trivial plan (or None for the global loop) and ``nsteps``.
        The march must end on a sync boundary (all nodes at the same
        time), so ``nsteps`` is rounded **up** to the next multiple of
        the coarsest cluster rate — a few extra steps past ``t_end``,
        never fewer."""
        lts = self.lts if lts is None else lts
        nsteps = int(np.ceil(t_end / self.dt))
        if not lts:
            return None, nsteps
        if isinstance(lts, LTSPlan):
            plan = lts
        else:
            cap = DEFAULT_MAX_RATE if lts is True else int(lts)
            plan = self.lts_plan(max_rate=cap)
        if plan.trivial:
            return None, nsteps
        r_max = plan.max_rate
        return plan, -(-nsteps // r_max) * r_max

    def _run_lts(
        self,
        forces,
        nsteps: int,
        plan: LTSPlan,
        *,
        receivers=None,
        record="velocity",
        checkpoint=None,
        resume=False,
        faults=None,
        health_interval=DEFAULT_HEALTH_INTERVAL,
    ) -> Seismograms | None:
        """Clustered-leapfrog march (schedule contract in
        :mod:`repro.solver.lts`): one loop over fine indices, each
        cluster fires when its rate divides the index, coarsest first,
        reading time-interpolated values at its one-coarser halo.
        Checkpoints (and fault/health probes) happen only at sync
        boundaries — multiples of the coarsest rate, where every node
        holds the state at the same time."""
        dt = self.dt
        nnode = self.nnode
        levels = self._lts_exec(plan)
        r_min, r_max = plan.min_rate, plan.max_rate
        damped = self.beta > 0
        upd_per_node = self._update_flops_per_node
        u_prev = np.zeros((nnode, 3))
        u = np.zeros((nnode, 3))
        Ku = np.empty((nnode, 3))
        fbuf = np.zeros((nnode, 3))
        if hasattr(forces, "forces_at"):
            force_fn = lambda t, out: forces.forces_at(t, out)
        else:
            force_fn = forces
        # per-level runtime buffers (own-node sized; the loop below is
        # allocation-free) and firing counters
        rt = []
        for lev in levels:
            n_own = len(lev["own"])
            ncols = lev["B"].shape[1]
            ni = len(lev["interp"])
            rt.append(
                {
                    "r": np.empty((n_own, 3)),
                    "tmp": np.empty((n_own, 3)),
                    "u_own": np.empty((n_own, 3)),
                    "up_own": np.empty((n_own, 3)),
                    "unew": np.empty((n_own, 3)),
                    "rbar": np.empty((ncols, 3)),
                    "ku": np.empty((n_own, 3)),
                    "ku_prev": np.zeros((n_own, 3)) if damped else None,
                    "sv": np.empty((ni, 3)),
                    "iv": np.empty((ni, 3)),
                    "fired": 0,
                }
            )
        data = receivers.allocate(3, nsteps) if receivers is not None else None
        slots = (
            self._lts_receiver_slots(levels, receivers)
            if receivers is not None
            else [(np.zeros(0, dtype=np.int64),) * 2] * len(levels)
        )
        if health_interval:
            validate_cfl(dt, self.mesh.elem_h, self.vp)
        k0 = 0
        if resume and checkpoint is not None:
            ck = checkpoint.latest()
            if ck is not None:
                u_prev[:] = ck.arrays["u_prev"]
                u[:] = ck.arrays["u"]
                if damped:
                    for i, st in enumerate(rt):
                        st["ku_prev"][:] = _ku_prev_from(ck, f"ku_prev_{i}")
                if data is not None and "rec_data" in ck.arrays:
                    prefix = ck.arrays["rec_data"]
                    data[:, :, : prefix.shape[2]] = prefix
                k0 = int(ck.meta["next_k"])
                if k0 % r_max:
                    raise ValueError(
                        f"LTS resume index {k0} is not a sync boundary "
                        f"(coarsest rate {r_max})"
                    )
        last_sync_saved = last_sync_checked = k0
        if telemetry.enabled():
            telemetry.gauge(
                "elastic.cfl_margin",
                stable_timestep(self.mesh.elem_h, self.vp, safety=1.0) / dt,
            )
            telemetry.gauge(
                "elastic.lts_theoretical_speedup", plan.theoretical_speedup()
            )
        with telemetry.span("elastic.run_lts") as _run:
            _run.add("nsteps", nsteps)
            _run.add("nnode", nnode)
            _run.add("levels", len(levels))
            _run.add("max_rate", r_max)
            for j in range(k0, nsteps, r_min):
                t = j * dt
                b = force_fn(t, fbuf)
                for lev, st, (ridx, rpos) in zip(levels, rt, slots):
                    rate = lev["rate"]
                    if j % rate:
                        continue
                    st["fired"] += 1
                    interp = lev["interp"]
                    ni = len(interp)
                    if ni:
                        # overwrite the one-coarser halo with its time-
                        # interpolated value for the matvecs, restore
                        # right after (the coarse pair brackets j*dt;
                        # theta is 0 or 1/2 — see lts.interp_theta)
                        sv, iv = st["sv"], st["iv"]
                        np.take(u, interp, axis=0, out=sv)
                        np.take(u_prev, interp, axis=0, out=iv)
                        if j % (2 * rate):  # theta = 1/2
                            np.add(iv, sv, out=iv)
                            np.multiply(iv, 0.5, out=iv)
                        u[interp] = iv
                    lev["K"].matvec(u, out=Ku)
                    own = lev["own"]
                    r, tmp = st["r"], st["tmp"]
                    # r = c_u u - c_ku K u~ - dt_c^2 K_AB u~  (own rows)
                    np.take(u, own, axis=0, out=st["u_own"])
                    np.multiply(lev["c_u"], st["u_own"], out=r)
                    np.take(Ku, own, axis=0, out=st["ku"])
                    np.multiply(st["ku"], lev["c_ku"], out=tmp)
                    np.subtract(r, tmp, out=r)
                    if lev["kab"] is not None:
                        spmv_acc(lev["kab"], u.reshape(-1), r.reshape(-1))
                    if ni:
                        u[interp] = sv
                    if damped:
                        # + (dt_c/2) beta K u~ of the previous firing
                        np.multiply(st["ku_prev"], lev["c_kup"], out=tmp)
                        np.add(r, tmp, out=r)
                        st["ku_prev"], st["ku"] = st["ku"], st["ku_prev"]
                    np.take(u_prev, own, axis=0, out=st["up_own"])
                    np.multiply(lev["prev_coef"], st["up_own"], out=tmp)
                    np.add(r, tmp, out=r)
                    if b is not None:
                        np.take(b, own, axis=0, out=tmp)
                        np.multiply(tmp, lev["dtc2"], out=tmp)
                        np.add(r, tmp, out=r)
                    # per-level hanging-node projection (block of 2.5)
                    spmv_into(lev["BT"], r, st["rbar"])
                    np.multiply(st["rbar"], lev["inv_A_bar"], out=st["rbar"])
                    spmv_into(lev["B"], st["rbar"], st["unew"])
                    if data is not None and len(ridx):
                        # sampled at the cluster's own cadence (column
                        # j); gaps are interpolated after the loop
                        if record == "velocity":
                            data[ridx, :, j] = (
                                st["unew"][rpos] - st["up_own"][rpos]
                            ) / (2.0 * lev["dtc"])
                        else:
                            data[ridx, :, j] = st["u_own"][rpos]
                    u_prev[own] = st["u_own"]
                    u[own] = st["unew"]
                s = j + r_min
                if s % r_max == 0:  # sync: all nodes hold u(s * dt)
                    if faults is not None:
                        faults.poison_state(0, s - 1, u)
                    if sync_check_due(
                        s, last_sync_checked, nsteps, health_interval
                    ):
                        check_finite(u, step=s - 1, field="u")
                        last_sync_checked = s
                    if (
                        checkpoint is not None
                        and checkpoint.interval > 0
                        and s // checkpoint.interval
                        > last_sync_saved // checkpoint.interval
                    ):
                        arrays = {"u_prev": u_prev, "u": u}
                        if damped:
                            for i, st in enumerate(rt):
                                arrays[f"ku_prev_{i}"] = st["ku_prev"]
                        if data is not None:
                            arrays["rec_data"] = data[:, :, :s]
                        checkpoint.save(
                            s - 1, arrays, {"next_k": s, "lts_rate": r_max}
                        )
                        last_sync_saved = s
            flops = 0
            for lev, st in zip(levels, rt):
                flops += st["fired"] * (
                    lev["K"].flops_per_matvec + upd_per_node * len(lev["own"])
                )
                _run.add(f"fired_r{lev['rate']}", st["fired"])
            _run.add("flops", flops)
            self.flops.add("stiffness", flops)
        if receivers is None:
            return None
        self._lts_fill_receiver_gaps(data, levels, slots, nsteps)
        return Seismograms(
            data=data, dt=dt, kind=record, positions=receivers.positions
        )

    def _run_batch_lts(
        self,
        forces: Sequence,
        nsteps: int,
        plan: LTSPlan,
        *,
        receivers=None,
        record="velocity",
    ) -> list[Seismograms] | None:
        """Batched clustered-leapfrog march: same schedule as
        :meth:`_run_lts` over ``(nnode, 3, B)`` state blocks — one
        level-3 per-cluster ``matmat`` and multi-vector CSR products
        per firing instead of ``B`` of each."""
        Bn = len(forces)
        dt = self.dt
        nnode = self.nnode
        levels = self._lts_exec(plan)
        r_min, r_max = plan.min_rate, plan.max_rate
        damped = self.beta > 0
        upd_per_node = self._update_flops_per_node
        u_prev = np.zeros((nnode, 3, Bn))
        u = np.zeros((nnode, 3, Bn))
        Ku = np.empty((nnode, 3, Bn))
        force_fns = [
            (lambda t, out, fc=fc: fc.forces_at(t, out))
            if hasattr(fc, "forces_at") else fc
            for fc in forces
        ]
        fbuf = np.zeros((nnode, 3, Bn))
        fcol = np.zeros((nnode, 3))
        col_live = np.zeros(Bn, dtype=bool)
        rt = []
        for lev in levels:
            n_own = len(lev["own"])
            ncols = lev["B"].shape[1]
            ni = len(lev["interp"])
            rt.append(
                {
                    "r": np.empty((n_own, 3, Bn)),
                    "tmp": np.empty((n_own, 3, Bn)),
                    "u_own": np.empty((n_own, 3, Bn)),
                    "up_own": np.empty((n_own, 3, Bn)),
                    "unew": np.empty((n_own, 3, Bn)),
                    "rbar": np.empty((ncols, 3, Bn)),
                    "ku": np.empty((n_own, 3, Bn)),
                    "ku_prev": (
                        np.zeros((n_own, 3, Bn)) if damped else None
                    ),
                    "sv": np.empty((ni, 3, Bn)),
                    "iv": np.empty((ni, 3, Bn)),
                    "fired": 0,
                }
            )
        if receivers is None:
            recs = None
        elif isinstance(receivers, ReceiverArray):
            recs = [receivers] * Bn
        else:
            recs = list(receivers)
            if len(recs) != Bn:
                raise ValueError("need one receiver array per scenario")
        data = (
            [ra.allocate(3, nsteps) for ra in recs]
            if recs is not None else None
        )
        slots = (
            [self._lts_receiver_slots(levels, ra) for ra in recs]
            if recs is not None else None
        )
        with telemetry.span("elastic.run_batch_lts") as _run:
            _run.add("nsteps", nsteps)
            _run.add("nnode", nnode)
            _run.add("batch", Bn)
            _run.add("levels", len(levels))
            for j in range(0, nsteps, r_min):
                t = j * dt
                live = False
                for b, fn in enumerate(force_fns):
                    fb = fn(t, fcol)
                    if fb is None:
                        if col_live[b]:
                            fbuf[:, :, b] = 0.0
                            col_live[b] = False
                    else:
                        fbuf[:, :, b] = fb
                        col_live[b] = True
                        live = True
                for li, (lev, st) in enumerate(zip(levels, rt)):
                    rate = lev["rate"]
                    if j % rate:
                        continue
                    st["fired"] += 1
                    interp = lev["interp"]
                    ni = len(interp)
                    if ni:
                        sv, iv = st["sv"], st["iv"]
                        np.take(u, interp, axis=0, out=sv)
                        np.take(u_prev, interp, axis=0, out=iv)
                        if j % (2 * rate):  # theta = 1/2
                            np.add(iv, sv, out=iv)
                            np.multiply(iv, 0.5, out=iv)
                        u[interp] = iv
                    lev["K"].matmat(u, out=Ku)
                    own = lev["own"]
                    n_own = len(own)
                    r, tmp = st["r"], st["tmp"]
                    np.take(u, own, axis=0, out=st["u_own"])
                    np.multiply(lev["c_u"][:, :, None], st["u_own"], out=r)
                    np.take(Ku, own, axis=0, out=st["ku"])
                    np.multiply(st["ku"], lev["c_ku"], out=tmp)
                    np.subtract(r, tmp, out=r)
                    if lev["kab"] is not None:
                        spmv_acc(
                            lev["kab"],
                            u.reshape(3 * nnode, Bn),
                            r.reshape(3 * n_own, Bn),
                        )
                    if ni:
                        u[interp] = sv
                    if damped:
                        np.multiply(st["ku_prev"], lev["c_kup"], out=tmp)
                        np.add(r, tmp, out=r)
                        st["ku_prev"], st["ku"] = st["ku"], st["ku_prev"]
                    np.take(u_prev, own, axis=0, out=st["up_own"])
                    np.multiply(
                        lev["prev_coef"][:, :, None], st["up_own"], out=tmp
                    )
                    np.add(r, tmp, out=r)
                    if live:
                        np.take(fbuf, own, axis=0, out=tmp)
                        np.multiply(tmp, lev["dtc2"], out=tmp)
                        np.add(r, tmp, out=r)
                    ncols = lev["B"].shape[1]
                    spmv_into(
                        lev["BT"],
                        r.reshape(n_own, 3 * Bn),
                        st["rbar"].reshape(ncols, 3 * Bn),
                    )
                    np.multiply(
                        st["rbar"], lev["inv_A_bar"][:, :, None],
                        out=st["rbar"],
                    )
                    spmv_into(
                        lev["B"],
                        st["rbar"].reshape(ncols, 3 * Bn),
                        st["unew"].reshape(n_own, 3 * Bn),
                    )
                    if data is not None:
                        for b in range(Bn):
                            ridx, rpos = slots[b][li]
                            if not len(ridx):
                                continue
                            if record == "velocity":
                                data[b][ridx, :, j] = (
                                    st["unew"][rpos, :, b]
                                    - st["up_own"][rpos, :, b]
                                ) / (2.0 * lev["dtc"])
                            else:
                                data[b][ridx, :, j] = st["u_own"][rpos, :, b]
                    u_prev[own] = st["u_own"]
                    u[own] = st["unew"]
            flops = 0
            for lev, st in zip(levels, rt):
                flops += st["fired"] * (
                    lev["K"].flops_per_matmat(Bn)
                    + upd_per_node * len(lev["own"]) * Bn
                )
            _run.add("flops", flops)
            self.flops.add("stiffness", flops)
        if recs is None:
            return None
        for b in range(Bn):
            self._lts_fill_receiver_gaps(data[b], levels, slots[b], nsteps)
        return [
            Seismograms(
                data=data[b], dt=dt, kind=record,
                positions=recs[b].positions,
            )
            for b in range(Bn)
        ]

    def run(
        self,
        forces: Callable[[float, np.ndarray], np.ndarray] | object,
        t_end: float,
        *,
        receivers: ReceiverArray | None = None,
        snapshots: SnapshotRecorder | None = None,
        record: str = "velocity",
        callback: Callable[[int, float, np.ndarray], None] | None = None,
        checkpoint: CheckpointManager | None = None,
        resume: bool = False,
        faults=None,
        health_interval: int = DEFAULT_HEALTH_INTERVAL,
        lts: int | bool | LTSPlan | None = None,
    ) -> Seismograms | None:
        """March the wave equation from rest to ``t_end``.

        ``forces`` is either a callable ``forces(t, out) -> (nnode, 3)``
        or a :class:`repro.sources.fault.SourceCollection`.

        Resilience: a :class:`~repro.solver.checkpoint.CheckpointManager`
        durably snapshots the leapfrog restart pair (plus the cached
        ``K u^{k-1}`` of a damped run and the recorded seismogram
        prefix) every ``checkpoint.interval`` steps; ``resume=True`` restarts from the
        latest valid snapshot instead of rest, reproducing the
        uninterrupted run bit for bit (the update depends only on the
        two previous states and the deterministic forcing).  Snapshot
        recorders only see steps after the resume point.
        ``health_interval`` arms the NaN/Inf sentinel (every that many
        steps plus the final one) and re-validates the CFL bound up
        front; 0 disables both.  ``faults`` takes a
        :class:`~repro.resilience.FaultPlan` (state poisoning only in
        serial runs).

        ``lts`` overrides the solver's clustered local-time-stepping
        setting for this run (None = use the ``lts=`` knob from the
        constructor).  A trivial plan — every element in the rate-1
        cluster — falls back to this global loop, so ``lts`` enabled on
        an unclustered model stays bitwise-identical to ``lts`` off.
        Snapshot recorders and per-step callbacks need the full state
        at every step and are not supported under LTS.
        """
        plan, nsteps = self._lts_dispatch(lts, t_end)
        if plan is not None:
            if snapshots is not None or callback is not None:
                raise ValueError(
                    "snapshots/callback need the full state every step; "
                    "run with lts=0 (they are unsupported under LTS)"
                )
            return self._run_lts(
                forces, nsteps, plan,
                receivers=receivers, record=record, checkpoint=checkpoint,
                resume=resume, faults=faults,
                health_interval=health_interval,
            )
        dt = self.dt
        dt2 = dt * dt
        hd = 0.5 * dt
        nnode = self.nnode
        m = self.m[:, None]
        m_alpha = self.m_alpha[:, None]
        damped = self.beta > 0
        # hoisted loop invariants: the coefficients of u, K u and the
        # cached K u^{k-1}, and the full u^{k-1} coefficient (mass,
        # Rayleigh alpha, boundary damping)
        c_u, c_ku, c_kup = self._residual_coefs(dt)
        prev_coef = (hd * m_alpha - m) + hd * self.C_diag
        # preallocated state and scratch buffers; the loop below is
        # in-place throughout — no per-step O(nnode) heap allocations
        u_prev = np.zeros((nnode, 3))
        u = np.zeros((nnode, 3))
        u_next = np.zeros((nnode, 3))
        r = np.empty((nnode, 3))
        Ku = np.empty((nnode, 3))
        tmp = np.empty((nnode, 3))
        r_bar = np.empty((self.A_bar.shape[0], 3))
        if hasattr(forces, "forces_at"):
            force_fn = lambda t, out: forces.forces_at(t, out)
        else:
            force_fn = forces
        fbuf = np.zeros((nnode, 3))

        data = receivers.allocate(3, nsteps) if receivers is not None else None
        Ku_prev = np.zeros((nnode, 3)) if damped else None  # K u^{k-1}

        if health_interval:
            validate_cfl(dt, self.mesh.elem_h, self.vp)
        k0 = 0
        if resume and checkpoint is not None:
            ck = checkpoint.latest()
            if ck is not None:
                u_prev[:] = ck.arrays["u_prev"]
                u[:] = ck.arrays["u"]
                if damped:
                    Ku_prev[:] = _ku_prev_from(ck, "ku_prev")
                if data is not None and "rec_data" in ck.arrays:
                    prefix = ck.arrays["rec_data"]
                    data[:, :, : prefix.shape[2]] = prefix
                k0 = int(ck.meta["next_k"])

        # telemetry: one is-None gate per step region when disabled
        # (literal span names, no kwargs — no hot-loop allocations)
        tel_on = telemetry.enabled()
        flops_K = self.K.flops_per_matvec
        flops_upd = self._update_flops_per_node * nnode
        if tel_on:
            telemetry.gauge(
                "elastic.cfl_margin",
                stable_timestep(self.mesh.elem_h, self.vp, safety=1.0)
                / dt,
            )
        with telemetry.span("elastic.run") as _run:
            _run.add("nsteps", nsteps)
            _run.add("nnode", nnode)
            for k in range(k0, nsteps):
                t = k * dt
                with telemetry.span("stiffness") as _s:
                    self.K.matvec(u, out=Ku)
                    _s.add("flops", flops_K)
                    _s.add("elements", self.K.nelem)
                self.flops.add("stiffness", flops_K)
                np.multiply(c_u, u, out=r)
                np.multiply(Ku, c_ku, out=tmp)
                np.subtract(r, tmp, out=r)
                if self._has_kab:
                    # r += (-dt^2 K_AB) u, prescaled at setup
                    spmv_acc(self._K_AB_mdt2, u.reshape(-1), r.reshape(-1))
                if damped:
                    # r += (dt/2) beta K u^{k-1}; this step's K u is the
                    # next step's cache
                    np.multiply(Ku_prev, c_kup, out=tmp)
                    np.add(r, tmp, out=r)
                    Ku_prev, Ku = Ku, Ku_prev
                np.multiply(prev_coef, u_prev, out=tmp)
                np.add(r, tmp, out=r)
                b = force_fn(t, fbuf)
                if b is not None:
                    np.multiply(b, dt2, out=tmp)
                    np.add(r, tmp, out=r)
                # hanging-node projection keeps the update explicit (2.5)
                with telemetry.span("update") as _s:
                    spmv_into(self.BT, r, r_bar)
                    np.multiply(r_bar, self._inv_A_bar, out=r_bar)
                    spmv_into(self.B, r_bar, u_next)
                    _s.add("flops", flops_upd)
                self.flops.add("update", flops_upd)
                if tel_on:
                    # displacement "energy" proxy — drift shows up as
                    # unbounded growth of this per-step series
                    telemetry.sample(
                        "elastic.u2", float(np.vdot(u_next, u_next)), step=k
                    )
                    telemetry.sample_alloc(step=k)

                if receivers is not None:
                    if record == "velocity":
                        data[:, :, k] = (
                            u_next[receivers.nodes] - u_prev[receivers.nodes]
                        ) / (2.0 * dt)
                    else:
                        data[:, :, k] = u[receivers.nodes]
                if snapshots is not None:
                    snapshots.maybe_record(k, t, u)
                if callback is not None:
                    callback(k, t, u)
                u_prev, u, u_next = u, u_next, u_prev
                # u is now x^{k+1}, u_prev is x^k — the restart pair
                if faults is not None:
                    faults.poison_state(0, k, u)
                if health_interval and should_check(k, nsteps, health_interval):
                    check_finite(u, step=k, field="u")
                if checkpoint is not None and checkpoint.due(k):
                    arrays = {"u_prev": u_prev, "u": u}
                    if damped:
                        arrays["ku_prev"] = Ku_prev
                    if data is not None:
                        arrays["rec_data"] = data[:, :, : k + 1]
                    checkpoint.save(k, arrays, {"next_k": k + 1})

        if receivers is None:
            return None
        return Seismograms(
            data=data, dt=dt, kind=record, positions=receivers.positions
        )

    def run_batch(
        self,
        forces: Sequence[Callable[[float, np.ndarray], np.ndarray] | object],
        t_end: float,
        *,
        receivers: ReceiverArray | Sequence[ReceiverArray] | None = None,
        record: str = "velocity",
        callback: Callable[[int, float, np.ndarray], None] | None = None,
        lts: int | bool | LTSPlan | None = None,
        faults=None,
        health_interval: int = DEFAULT_HEALTH_INTERVAL,
    ) -> list[Seismograms] | None:
        """March ``B = len(forces)`` scenarios at once from rest.

        One fused time loop advances the whole ensemble: states are
        ``(nnode, 3, B)`` blocks, the stiffness runs as a single
        level-3 :meth:`ElasticOperator.matmat`, the Stacey ``c1``
        coupling and the hanging-node projection run as multi-vector
        CSR products over all ``3 B`` columns, and the diagonal
        updates broadcast — so the per-step Python dispatch and every
        indirect-addressing pass are paid once per step instead of
        once per scenario.  Scenario ``b``'s trajectory is
        bit-identical to ``run(forces[b], t_end)`` (identical
        summation orders throughout; a scenario idle at a step
        contributes a zero forcing column, equal under ``==``).

        ``receivers`` is a single shared :class:`ReceiverArray` or one
        per scenario; ``callback(k, t, u)`` sees the full
        ``(nnode, 3, B)`` block.  Returns one :class:`Seismograms` per
        scenario (None without receivers).

        ``faults``/``health_interval`` mirror :meth:`run`: the fused
        state block is checked for non-finite values every
        ``health_interval`` steps (and at the final step), raising
        :class:`~repro.resilience.health.NumericalHealthError` — one
        poisoned column fails the whole fused loop, which is exactly
        the signal the service scheduler's bisection isolates.  The
        LTS path keeps its own sync-boundary checks and ignores
        ``faults``.
        """
        plan, nsteps = self._lts_dispatch(lts, t_end)
        if plan is not None:
            if callback is not None:
                raise ValueError(
                    "callback needs the full state every step; run with "
                    "lts=0 (it is unsupported under LTS)"
                )
            return self._run_batch_lts(
                forces, nsteps, plan, receivers=receivers, record=record
            )
        Bn = len(forces)
        dt = self.dt
        dt2 = dt * dt
        hd = 0.5 * dt
        nnode = self.nnode
        if health_interval:
            validate_cfl(dt, self.mesh.elem_h, self.vp)
        # broadcast the per-node/per-dof diagonals over the batch axis
        m = self.m[:, None, None]
        m_alpha = self.m_alpha[:, None, None]
        damped = self.beta > 0
        c_u, c_ku, c_kup = self._residual_coefs(dt)
        c_u = c_u[:, :, None]
        prev_coef = (hd * m_alpha - m) + hd * self.C_diag[:, :, None]
        inv_A_bar = self._inv_A_bar[:, :, None]
        nbar = self.A_bar.shape[0]
        u_prev = np.zeros((nnode, 3, Bn))
        u = np.zeros((nnode, 3, Bn))
        u_next = np.zeros((nnode, 3, Bn))
        r = np.empty((nnode, 3, Bn))
        Ku = np.empty((nnode, 3, Bn))
        tmp = np.empty((nnode, 3, Bn))
        r_bar = np.empty((nbar, 3, Bn))
        force_fns = [
            (lambda t, out, fc=fc: fc.forces_at(t, out))
            if hasattr(fc, "forces_at") else fc
            for fc in forces
        ]
        fbuf = np.zeros((nnode, 3, Bn))
        fcol = np.zeros((nnode, 3))  # contiguous per-scenario scratch
        col_live = np.zeros(Bn, dtype=bool)  # column nonzero in fbuf

        if receivers is None:
            recs = None
        elif isinstance(receivers, ReceiverArray):
            recs = [receivers] * Bn
        else:
            recs = list(receivers)
            if len(recs) != Bn:
                raise ValueError("need one receiver array per scenario")
        data = (
            [ra.allocate(3, nsteps) for ra in recs]
            if recs is not None else None
        )
        Ku_prev = np.zeros((nnode, 3, Bn)) if damped else None

        # batched flop counts come from the kernel's own accounting so
        # they cannot drift from the 1-RHS numbers (satellite of the
        # telemetry rework; previously multiplied by Bn by hand here)
        flops_K = self.K.flops_per_matmat(Bn)
        flops_upd = self._update_flops_per_node * nnode * Bn
        with telemetry.span("elastic.run_batch") as _run:
            _run.add("nsteps", nsteps)
            _run.add("nnode", nnode)
            _run.add("batch", Bn)
            for k in range(nsteps):
                t = k * dt
                with telemetry.span("stiffness") as _s:
                    self.K.matmat(u, out=Ku)
                    _s.add("flops", flops_K)
                    _s.add("elements", self.K.nelem)
                self.flops.add("stiffness", flops_K)
                np.multiply(c_u, u, out=r)
                np.multiply(Ku, c_ku, out=tmp)
                np.subtract(r, tmp, out=r)
                if self._has_kab:
                    spmv_acc(
                        self._K_AB_mdt2,
                        u.reshape(3 * nnode, Bn),
                        r.reshape(3 * nnode, Bn),
                    )
                if damped:
                    np.multiply(Ku_prev, c_kup, out=tmp)
                    np.add(r, tmp, out=r)
                    Ku_prev, Ku = Ku, Ku_prev
                np.multiply(prev_coef, u_prev, out=tmp)
                np.add(r, tmp, out=r)
                live = False
                for b, fn in enumerate(force_fns):
                    fb = fn(t, fcol)
                    if fb is None:
                        # a column goes quiet: zero it once, then skip
                        # the fill until the source speaks again (the
                        # content is zero either way, so bit-identity
                        # holds)
                        if col_live[b]:
                            fbuf[:, :, b] = 0.0
                            col_live[b] = False
                    else:
                        fbuf[:, :, b] = fb
                        col_live[b] = True
                        live = True
                if live:
                    np.multiply(fbuf, dt2, out=tmp)
                    np.add(r, tmp, out=r)
                with telemetry.span("update") as _s:
                    spmv_into(
                        self.BT,
                        r.reshape(nnode, 3 * Bn),
                        r_bar.reshape(nbar, 3 * Bn),
                    )
                    np.multiply(r_bar, inv_A_bar, out=r_bar)
                    spmv_into(
                        self.B,
                        r_bar.reshape(nbar, 3 * Bn),
                        u_next.reshape(nnode, 3 * Bn),
                    )
                    _s.add("flops", flops_upd)
                self.flops.add("update", flops_upd)

                if recs is not None:
                    for b, ra in enumerate(recs):
                        if record == "velocity":
                            data[b][:, :, k] = (
                                u_next[ra.nodes, :, b] - u_prev[ra.nodes, :, b]
                            ) / (2.0 * dt)
                        else:
                            data[b][:, :, k] = u[ra.nodes, :, b]
                if callback is not None:
                    callback(k, t, u)
                u_prev, u, u_next = u, u_next, u_prev
                if faults is not None:
                    faults.poison_state(0, k, u)
                if health_interval and should_check(
                    k, nsteps, health_interval
                ):
                    check_finite(u, step=k, field="u")

        if recs is None:
            return None
        return [
            Seismograms(data=data[b], dt=dt, kind=record, positions=recs[b].positions)
            for b in range(Bn)
        ]
