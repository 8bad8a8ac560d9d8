"""Tests for the 3D hexahedral elastic solver and the tet baseline."""

import numpy as np
import pytest

from repro.io.seismogram import ReceiverArray
from repro.io.snapshots import SnapshotRecorder
from repro.materials import HomogeneousMaterial
from repro.mesh import build_constraints, extract_mesh, uniform_hex_mesh
from repro.octree import balance_octree, build_adaptive_octree
from repro.solver import ElasticWaveSolver, TetWaveSolver
from repro.sources import MomentTensorSource, double_couple_moment
from repro.sources.fault import SourceCollection


L = 1000.0
# vp != 2 vs so the Stacey c1 coefficient is nonzero
MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)


def make_uniform(n=8):
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=int(np.log2(n)) + 1
    )
    mesh = extract_mesh(tree, L=L)
    return tree, mesh


def make_refined():
    def target(c, s):
        return np.where(np.all(c < 0.5, axis=1), 1.0 / 16, 1.0 / 8)

    tree = balance_octree(build_adaptive_octree(target, max_level=5))
    mesh = extract_mesh(tree, L=L)
    return tree, mesh


def center_source(t0=0.05, rise=0.15, moment=1e12, kind="dc"):
    if kind == "dc":
        M = double_couple_moment(90.0, 90.0, 0.0, moment)
    else:  # explosion
        M = moment * np.eye(3)
    return MomentTensorSource(
        position=np.array([0.5 * L + 1.0, 0.5 * L + 1.0, 0.5 * L + 1.0]),
        moment=M,
        T=t0,
        t0=rise,
    )


class TestElasticSolver:
    def test_zero_source_stays_zero(self):
        tree, mesh = make_uniform(4)
        solver = ElasticWaveSolver(mesh, tree, MAT)
        out = {}
        solver.run(
            lambda t, buf: None,
            10 * solver.dt,
            callback=lambda k, t, u: out.__setitem__("u", u),
        )
        assert np.all(out["u"] == 0)

    def test_dt_from_cfl(self):
        tree, mesh = make_uniform(8)
        solver = ElasticWaveSolver(mesh, tree, MAT)
        h = L / 8
        assert 0 < solver.dt <= h / 2000.0

    def test_wave_reaches_receiver_at_right_time(self):
        """P-wave arrival at a known distance: travel time = d / vp."""
        tree, mesh = make_uniform(8)
        solver = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)
        src = center_source(t0=0.02, rise=0.06, kind="explosion")
        forces = SourceCollection(mesh, tree, [src])
        rec = ReceiverArray(mesh, np.array([[500.0, 500.0, 0.0]]))  # surface
        seis = solver.run(forces, 0.6, receivers=rec)
        v = np.linalg.norm(seis.data[0], axis=0)
        # distance 500 m, vp 1800 -> arrival ~0.30 s after onset 0.02
        t_arr = seis.times[np.argmax(v > 0.05 * v.max())]
        assert 0.15 < t_arr < 0.45

    def test_stability_long_run(self):
        tree, mesh = make_uniform(4)
        solver = ElasticWaveSolver(mesh, tree, MAT)
        forces = SourceCollection(mesh, tree, [center_source()])
        peak = {}

        def cb(k, t, u):
            peak["v"] = max(peak.get("v", 0.0), float(np.abs(u).max()))

        solver.run(forces, 2.0, callback=cb)
        assert np.isfinite(peak["v"])
        assert peak["v"] < 1e3  # no blowup

    def test_stability_with_hanging_nodes(self):
        tree, mesh = make_refined()
        solver = ElasticWaveSolver(mesh, tree, MAT)
        assert solver.constraints.n_hanging > 0
        forces = SourceCollection(
            mesh, tree, [center_source(moment=1e12)]
        )
        last = {}
        solver.run(forces, 1.0, callback=lambda k, t, u: last.__setitem__("u", u))
        assert np.isfinite(last["u"]).all()
        assert np.abs(last["u"]).max() < 1e3

    def test_hanging_interface_continuity(self):
        """During propagation the hanging values equal their constraint
        interpolation (u = B ubar holds by construction each step)."""
        tree, mesh = make_refined()
        info = build_constraints(tree, mesh)
        solver = ElasticWaveSolver(mesh, tree, MAT, constraints=info)
        forces = SourceCollection(mesh, tree, [center_source()])
        checks = []

        def cb(k, t, u):
            if k % 20 == 0 and np.abs(u).max() > 0:
                ubar = u[info.independent]
                checks.append(np.abs(info.B @ ubar - u).max() <= 1e-12)

        solver.run(forces, 0.5, callback=cb)
        assert checks and all(checks)

    @staticmethod
    def _velocity_decay(solver, forces, t_end=2.5):
        """Final/max ratio of the per-step increment norm.  (The
        dislocation leaves a permanent static field, so the displacement
        norm itself never vanishes — physics, not leakage.)"""
        prev = {"u": None}
        vn = []

        def cb(k, t, u):
            if prev["u"] is not None:
                vn.append(np.linalg.norm(u - prev["u"]))
            prev["u"] = u.copy()

        solver.run(forces, t_end, callback=cb)
        vn = np.array(vn)
        return vn[-1] / vn.max()

    def test_absorbing_boundary_drains_energy(self):
        tree, mesh = make_uniform(8)
        solver = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)
        src = center_source(t0=0.02, rise=0.08, kind="explosion")
        forces = SourceCollection(mesh, tree, [src])
        assert self._velocity_decay(solver, forces) < 0.6

    def test_stacey_c1_stable_and_absorbing(self):
        tree, mesh = make_uniform(8)
        solver = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=True)
        assert solver.K_AB.nnz > 0
        src = center_source(t0=0.02, rise=0.08, kind="explosion")
        forces = SourceCollection(mesh, tree, [src])
        ratio = self._velocity_decay(solver, forces)
        assert np.isfinite(ratio)
        assert ratio < 0.6

    def test_rayleigh_damping_reduces_amplitude(self):
        tree, mesh = make_uniform(8)
        src = center_source(kind="dc")
        peaks = {}
        for name, xi in (("undamped", 0.0), ("damped", 0.1)):
            solver = ElasticWaveSolver(
                mesh, tree, MAT, damping_ratio=xi, damping_band=(0.5, 5.0)
            )
            forces = SourceCollection(mesh, tree, [src])
            rec = ReceiverArray(mesh, np.array([[500.0, 500.0, 0.0]]))
            seis = solver.run(forces, 0.8, receivers=rec)
            peaks[name] = np.abs(seis.data).max()
        assert peaks["damped"] < 0.9 * peaks["undamped"]

    def test_snapshot_recorder(self):
        tree, mesh = make_uniform(4)
        solver = ElasticWaveSolver(mesh, tree, MAT)
        forces = SourceCollection(mesh, tree, [center_source()])
        surf = mesh.surface_nodes(2, 0)
        rec = SnapshotRecorder(surf, every=3)
        solver.run(forces, 0.4, snapshots=rec)
        frames = rec.as_array()
        assert frames.shape[1] == len(surf)
        assert frames.shape[0] >= 3
        assert frames.max() > 0

    def test_flop_accounting(self):
        tree, mesh = make_uniform(4)
        solver = ElasticWaveSolver(mesh, tree, MAT)
        solver.run(lambda t, buf: None, 10 * solver.dt)
        assert solver.flops.total > 0


def _tet_oracle(tets, forces, nsteps, rec):
    """:meth:`TetWaveSolver.run` as it was before it called
    ``elastic_update``: the hand-written seven-ufunc central-difference
    update around the stored-matrix product, recording velocities.  The
    oracle the run must equal bit for bit."""
    dt = tets.dt
    dt2 = dt * dt
    n = tets.nnode
    m = tets.m[:, None]
    m2 = 2.0 * m
    inv_A = 1.0 / (m + 0.5 * dt * tets.C_diag)
    prev_coef = -m + 0.5 * dt * tets.C_diag
    u_prev, u, u_next = np.zeros((n, 3)), np.zeros((n, 3)), np.zeros((n, 3))
    r, tmp, fbuf = np.empty((n, 3)), np.empty((n, 3)), np.zeros((n, 3))
    data = rec.allocate(3, nsteps)
    for k in range(nsteps):
        tets.matvec(u, out=tmp)
        np.multiply(m2, u, out=r)
        np.multiply(tmp, dt2, out=tmp)
        np.subtract(r, tmp, out=r)
        np.multiply(prev_coef, u_prev, out=tmp)
        np.add(r, tmp, out=r)
        b = forces.forces_at(k * dt, fbuf)
        if b is not None:
            np.multiply(b, dt2, out=tmp)
            np.add(r, tmp, out=r)
        np.multiply(r, inv_A, out=u_next)
        data[:, :, k] = (u_next[rec.nodes] - u_prev[rec.nodes]) / (2 * dt)
        u_prev, u, u_next = u, u_next, u_prev
    return data


class TestTetBaseline:
    def test_tet_run_is_the_hand_written_update_bitwise(self):
        # the baseline's nodes are one Lysmer row set of elastic_update:
        # its coefficients and ufunc order are the old loop's exactly
        tree, mesh = make_uniform(8)
        forces = SourceCollection(
            mesh, tree, [center_source(kind="explosion")]
        )
        rec = ReceiverArray(
            mesh, np.array([[500.0, 500.0, 0.0], [250.0, 750.0, 0.0]])
        )
        tets = TetWaveSolver(mesh, MAT)
        nsteps = 100
        seis = tets.run(forces, (nsteps - 0.5) * tets.dt, receivers=rec)
        ref = _tet_oracle(tets, forces, nsteps, rec)
        assert np.abs(ref).max() > 0
        assert np.array_equal(seis.data, ref)

    def test_tet_runs_and_agrees_with_hex_at_low_frequency(self):
        """The paper's Figure 2.4 logic: both codes agree once both
        resolve the wavefield (here same mesh, low-passed)."""
        tree, mesh = make_uniform(8)
        src = center_source(t0=0.1, rise=0.5, kind="explosion")
        forces = SourceCollection(mesh, tree, [src])
        rec_pos = np.array([[500.0, 500.0, 0.0]])

        hexs = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)
        rec1 = ReceiverArray(mesh, rec_pos)
        s_hex = hexs.run(forces, 1.5, receivers=rec1)

        tets = TetWaveSolver(mesh, MAT, dt=hexs.dt)
        rec2 = ReceiverArray(mesh, rec_pos)
        s_tet = tets.run(forces, 1.5, receivers=rec2)

        def corr(fc):
            a = s_hex.lowpassed(fc).data
            b = s_tet.lowpassed(fc).data
            return np.corrcoef(a.ravel(), b.ravel())[0, 1]

        # agreement within the resolved band, divergence above it —
        # the behaviour Figure 2.4 reports
        assert corr(0.8) > 0.9
        assert corr(3.0) < corr(0.8) - 0.3

    def test_tet_memory_overhead(self):
        """Paper: the hexahedral code needs ~an order of magnitude less
        memory than the (grid-point-based) tetrahedral code."""
        tree, mesh = make_uniform(8)
        hexs = ElasticWaveSolver(mesh, tree, MAT)
        tets = TetWaveSolver(mesh, MAT)
        ratio = tets.memory_bytes() / hexs.memory_bytes()
        assert ratio > 4.0

    def test_tet_stability(self):
        tree, mesh = make_uniform(4)
        tets = TetWaveSolver(mesh, MAT)
        forces = SourceCollection(mesh, tree, [center_source()])
        rec = ReceiverArray(mesh, np.array([[500.0, 500.0, 0.0]]))
        seis = tets.run(forces, 1.0, receivers=rec)
        assert np.isfinite(seis.data).all()
