"""Distributed time stepping must reproduce the serial solver."""

import numpy as np
import pytest

from repro.materials import HomogeneousMaterial, LayeredMaterial
from repro.mesh import extract_mesh, rcb_partition, uniform_hex_mesh
from repro.octree import build_adaptive_octree
from repro.parallel import DistributedWaveSolver, SimWorld, per_step_profile
from repro.solver import ElasticWaveSolver
from repro.sources import MomentTensorSource
from repro.sources.fault import SourceCollection

MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
#: soft layer over stiff bedrock: a non-trivial LTS plan
LAYERED = LayeredMaterial(
    [875.0], vs=[200.0, 1600.0], vp=[400.0, 3200.0], rho=[2000.0, 2000.0]
)
L = 1000.0


def serial_reference(mesh, tree, forces, t_end):
    """Serial state u^{nsteps}: the callback reports the pre-update
    state, so run one extra step to observe the final state of a
    ``t_end`` distributed run."""
    solver = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)
    nsteps = int(np.ceil(t_end / solver.dt))
    out = {}

    def cb(k, t, u):
        if k == nsteps:
            out["u"] = u.copy()

    solver.run(forces, (nsteps + 1) * solver.dt, callback=cb)
    return solver, out["u"]


@pytest.fixture(scope="module")
def problem():
    n = 8
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=4
    )
    mesh = extract_mesh(tree, L=L)
    src = MomentTensorSource(
        position=np.array([501.0, 501.0, 501.0]),
        moment=1e12 * np.eye(3),
        T=0.02,
        t0=0.1,
    )
    forces = SourceCollection(mesh, tree, [src])
    serial, u_ref = serial_reference(mesh, tree, forces, 0.3)
    return mesh, tree, forces, serial, u_ref


@pytest.mark.parametrize("nranks", [1, 2, 4, 6])
def test_distributed_matches_serial(problem, nranks):
    mesh, tree, forces, serial, u_ref = problem
    parts = rcb_partition(mesh.elem_centers, nranks)
    world = SimWorld(nranks)
    dist = DistributedWaveSolver(
        mesh, MAT, parts, world, dt=serial.dt
    )
    u = dist.run(forces, 0.3)
    # the distributed trajectory IS the serial one: the rank program
    # calls the serial solver's update, so one rank is the same bits
    # and several differ only by the reordered interface sums
    if nranks == 1:
        assert np.array_equal(u, u_ref)
    else:
        np.testing.assert_allclose(u, u_ref, rtol=1e-9, atol=1e-14)


def test_one_rank_counts_the_serial_flops_per_step(problem):
    # one accounting of the stiffness and update work for the serial
    # marches (every-step and clustered), the rank program and the
    # scalability profile
    mesh, tree, forces, serial, _ = problem
    parts = np.zeros(mesh.nelem, dtype=np.int64)
    nsteps = 16
    t_end = (nsteps - 0.5) * serial.dt
    for lts, mat in ((0, MAT), (8, LAYERED)):
        if lts:
            serial = ElasticWaveSolver(mesh, tree, mat, stacey_c1=False)
            assert not serial.lts_plan(max_rate=lts).trivial
        world = SimWorld(1)
        dist = DistributedWaveSolver(mesh, mat, parts, world, dt=serial.dt)
        dist.run(forces, t_end, lts=lts)
        before = serial.flops.total
        serial.run(forces, t_end, lts=lts)
        assert world.stats[0].flops == serial.flops.total - before
        if not lts:
            per_step = (serial.flops.total - before) // nsteps
            assert per_step_profile(dist.ranks)[0]["flops"] == per_step


def test_distributed_run_takes_a_source_collection(problem):
    # the distributed run reads its forcing through the serial solver's
    # adapter: a source collection is the (t) callable around it
    mesh, tree, forces, serial, _ = problem
    parts = np.zeros(mesh.nelem, dtype=np.int64)
    fbuf = np.zeros((mesh.nnode, 3))
    u = [
        DistributedWaveSolver(
            mesh, MAT, parts, SimWorld(1), dt=serial.dt
        ).run(f, 0.2)
        for f in (forces, lambda t: forces.forces_at(t, fbuf))
    ]
    assert np.abs(u[0]).max() > 0
    assert np.array_equal(u[0], u[1])


def test_distributed_traffic_scales_with_steps(problem):
    mesh, tree, forces, serial, _ = problem
    parts = rcb_partition(mesh.elem_centers, 4)

    def run_for(t_end):
        world = SimWorld(4)
        dist = DistributedWaveSolver(mesh, MAT, parts, world, dt=serial.dt)
        dist.run(forces, t_end)
        return world.total_stats()

    s1 = run_for(0.1)
    s2 = run_for(0.2)
    assert s2.messages_sent > 1.5 * s1.messages_sent
    assert s2.bytes_sent > 1.5 * s1.bytes_sent


def test_rejects_nonconforming_mesh():
    def target(c, s):
        return np.where(np.all(c < 0.5, axis=1), 1 / 16, 1 / 8)

    from repro.octree import balance_octree

    tree = balance_octree(build_adaptive_octree(target, max_level=5))
    mesh = extract_mesh(tree, L=L)
    with pytest.raises(ValueError):
        DistributedWaveSolver(
            mesh, MAT, np.zeros(mesh.nelem, dtype=np.int64), SimWorld(1)
        )
