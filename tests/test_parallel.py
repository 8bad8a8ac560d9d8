"""Tests for the simulated MPI, the element partition, the distributed
stiffness application and the machine model."""

import numpy as np
import pytest

from repro.materials import HomogeneousMaterial
from repro.mesh import extract_mesh, rcb_partition, uniform_hex_mesh
from repro.octree import build_adaptive_octree
from repro.parallel import (
    ALPHASERVER_ES45,
    DistributedWaveSolver,
    MachineModel,
    SimWorld,
    per_step_profile,
    predict_scalability,
    rank_partitions,
)
from repro.parallel.perfmodel import format_table
from repro.solver import ElasticWaveSolver

MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)


class TestSimComm:
    def test_send_recv_roundtrip(self):
        w = SimWorld(2)
        w.comm(0).Send(np.arange(5.0), dest=1)
        got = w.comm(1).Recv(source=0)
        np.testing.assert_array_equal(got, np.arange(5.0))

    def test_send_copies_buffer(self):
        w = SimWorld(2)
        buf = np.ones(3)
        w.comm(0).Send(buf, dest=1)
        buf[:] = 99.0
        np.testing.assert_array_equal(w.comm(1).Recv(0), np.ones(3))

    def test_traffic_accounted(self):
        w = SimWorld(2)
        w.comm(0).Send(np.zeros(10), dest=1)
        assert w.stats[0].messages_sent == 1
        assert w.stats[0].bytes_sent == 80
        assert w.stats[1].messages_sent == 0

    def test_recv_without_message_raises(self):
        w = SimWorld(2)
        with pytest.raises(RuntimeError):
            w.comm(1).Recv(source=0)

    def test_bad_rank_rejected(self):
        w = SimWorld(2)
        with pytest.raises(ValueError):
            w.comm(5)


class _RandomMaterial:
    """Per-element random velocities (the same draw on every query)."""

    def query(self, centers):
        rng = np.random.default_rng(0)
        vs = 800.0 + 400.0 * rng.random(len(centers))
        return vs, 1.8 * vs, 2000.0 + 500.0 * rng.random(len(centers))


class _RandomForce:
    """A dense random nodal load with a Gaussian pulse in time."""

    def __init__(self, nnode):
        self.f0 = np.random.default_rng(1).standard_normal((nnode, 3))

    def __call__(self, t):
        return 1e9 * np.exp(-(((t - 0.004) / 0.002) ** 2)) * self.f0


NSTEPS = 12


@pytest.fixture(scope="module")
def uniform4():
    """The 4^3-element cube, its serial ``stacey_c1=False`` solver and
    that solver's state after ``NSTEPS`` steps of a dense load."""
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / 4), max_level=2
    )
    mesh = extract_mesh(tree, L=100.0)
    force = _RandomForce(mesh.nnode)
    serial = ElasticWaveSolver(mesh, tree, _RandomMaterial(), stacey_c1=False)
    out = {}

    def cb(k, t, u):
        if k == NSTEPS:
            out["u"] = u.copy()

    # the callback reports the pre-update state: one extra step
    serial.run(force, (NSTEPS + 0.5) * serial.dt, callback=cb)
    return mesh, force, serial, out["u"]


class TestDistributedMatvec:
    """The distributed stiffness application — interface product, halo
    exchange, interior product, accumulate — as the rank program runs
    it inside :meth:`DistributedWaveSolver.run`, against the serial
    solver's."""

    @staticmethod
    def _solver(mesh, serial, nranks, world):
        parts = (
            rcb_partition(mesh.elem_centers, nranks)
            if nranks > 1
            else np.zeros(mesh.nelem, dtype=np.int64)
        )
        return DistributedWaveSolver(
            mesh, _RandomMaterial(), parts, world, dt=serial.dt
        )

    @pytest.mark.parametrize("nranks", [1, 2, 4, 7])
    def test_matches_serial_operator(self, uniform4, nranks):
        mesh, force, serial, u_ref = uniform4
        dist = self._solver(mesh, serial, nranks, SimWorld(nranks))
        u = dist.run(force, (NSTEPS - 0.5) * serial.dt)
        assert np.abs(u_ref).max() > 0
        if nranks == 1:
            assert np.array_equal(u, u_ref)
        else:
            # only the interface sums are reordered
            assert np.abs(u - u_ref).max() <= 1e-12 * np.abs(u_ref).max()

    def _one_step_traffic(self, uniform4, nranks):
        mesh, force, serial, _ = uniform4
        world = SimWorld(nranks)
        dist = self._solver(mesh, serial, nranks, world)
        before = world.total_stats()
        dist.run(force, 0.5 * serial.dt)
        after = world.total_stats()
        return dist, before, after

    def test_communication_happens_for_multirank(self, uniform4):
        dist, before, after = self._one_step_traffic(uniform4, 4)
        # one message per (rank, neighbour) per step, 3 doubles per
        # shared point
        links = [
            loc for rp in dist.ranks for loc, _ in rp.shared_with.values()
        ]
        assert len(links) > 0
        assert after.messages_sent - before.messages_sent == len(links)
        assert after.bytes_sent - before.bytes_sent == sum(
            24 * len(loc) for loc in links
        )
        assert after.flops > before.flops

    def test_single_rank_has_no_communication(self, uniform4):
        _, before, after = self._one_step_traffic(uniform4, 1)
        assert after.messages_sent == before.messages_sent == 0
        assert after.flops > 0

    def test_profile_shapes(self):
        mesh = uniform_hex_mesh(4, L=100.0)
        parts = rcb_partition(mesh.elem_centers, 8)
        prof = per_step_profile(rank_partitions(mesh, parts, 8))
        assert len(prof) == 8
        assert sum(p["elements"] for p in prof) == mesh.nelem
        assert all(p["flops"] > 0 for p in prof)
        # interior ranks talk to several neighbors
        assert max(p["neighbors"] for p in prof) >= 3


class TestRankPartitions:
    @pytest.mark.parametrize(
        "bad",
        ["negative", "too large", "short", "float"],
    )
    def test_solver_rejects_bad_parts(self, bad):
        mesh = uniform_hex_mesh(4, L=100.0)
        parts = rcb_partition(mesh.elem_centers, 2)
        if bad == "negative":
            parts[0] = -1  # its element would belong to no rank
        elif bad == "too large":
            parts[0] = 2
        elif bad == "short":
            parts = parts[:-1]
        else:
            parts = parts.astype(float)
        with pytest.raises(ValueError, match="parts|part ids"):
            DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))

    def test_every_element_and_node_is_placed(self):
        mesh = uniform_hex_mesh(4, L=100.0)
        parts = rcb_partition(mesh.elem_centers, 7)
        ranks = rank_partitions(mesh, parts, 7)
        elems = np.concatenate([rp.elements for rp in ranks])
        assert np.array_equal(np.sort(elems), np.arange(mesh.nelem))
        # every grid point is gathered by exactly one rank
        gathered = np.concatenate([rp.gather_nodes for rp in ranks])
        assert np.array_equal(np.sort(gathered), np.arange(mesh.nnode))
        for r, rp in enumerate(ranks):
            assert np.array_equal(
                rp.nodes[rp.local_conn], mesh.conn[rp.elements]
            )
            for o, (loc, gids) in rp.shared_with.items():
                assert np.array_equal(rp.nodes[loc], gids)
                assert np.array_equal(ranks[o].shared_with[r][1], gids)


class TestMachineModel:
    def test_single_pe_reaches_full_efficiency(self):
        mesh = uniform_hex_mesh(8, L=1000.0)
        row = predict_scalability(mesh, 1)
        np.testing.assert_allclose(row.efficiency, 1.0, rtol=1e-6)
        np.testing.assert_allclose(
            row.mflops_per_pe, ALPHASERVER_ES45.flop_rate / 1e6, rtol=1e-6
        )

    def test_efficiency_decreases_with_ranks_at_fixed_size(self):
        """Strong scaling: same mesh on more PEs -> lower efficiency
        (growing communication-to-computation ratio), the Table 2.1
        trend at the 3000-PE end."""
        mesh = uniform_hex_mesh(8, L=1000.0)
        effs = [
            predict_scalability(mesh, p).efficiency
            for p in (1, 8, 64)
        ]
        assert effs[0] > effs[1] > effs[2]
        # without the scale-driven synchronization term, communication
        # alone leaves these tiny grains still reasonably efficient
        nosync = MachineModel("nosync", 505e6, 6e-6, 250e6, 0.0)
        effs2 = [
            predict_scalability(mesh, p, machine=nosync).efficiency
            for p in (1, 8, 64)
        ]
        assert effs2[0] > effs2[1] > effs2[2]
        assert effs2[2] > 0.1

    def test_latency_hurts_small_grains(self):
        mesh = uniform_hex_mesh(8, L=1000.0)
        fast = MachineModel("fast-net", 505e6, 1e-7, 1e9)
        slow = MachineModel("slow-net", 505e6, 1e-4, 1e7)
        e_fast = predict_scalability(mesh, 32, machine=fast).efficiency
        e_slow = predict_scalability(mesh, 32, machine=slow).efficiency
        assert e_fast > e_slow

    def test_table_format(self):
        mesh = uniform_hex_mesh(4, L=1000.0)
        rows = [
            predict_scalability(mesh, p, model_name=f"T{p}")
            for p in (1, 4)
        ]
        text = format_table(rows)
        assert "PEs" in text and "efficiency" in text
        assert "T4" in text
