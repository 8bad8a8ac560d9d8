"""Parallel execution: distributed time stepping and the machine model.

Demonstrates the paper's Section 2.4 machinery at laptop scale:

1. run the explicit solver distributed over simulated MPI ranks and
   verify the trajectory matches the serial solver exactly;
2. show the measured per-rank work/communication profile;
3. model the AlphaServer scalability of the same mesh (a mini
   Table 2.1).

Run:  python examples/parallel_scaling.py
"""

import numpy as np

from repro.materials import HomogeneousMaterial
from repro.mesh import extract_mesh, rcb_partition
from repro.octree import build_adaptive_octree
from repro.parallel import DistributedWaveSolver, SimWorld, predict_scalability
from repro.parallel.perfmodel import format_table
from repro.solver import ElasticWaveSolver
from repro.sources import MomentTensorSource
from repro.sources.fault import SourceCollection


def main():
    L, n = 1000.0, 8
    mat = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
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

    # serial reference (stop one step early: the callback reports the
    # pre-update state)
    serial = ElasticWaveSolver(mesh, tree, mat, stacey_c1=False)
    nsteps = int(np.ceil(0.3 / serial.dt))
    ref = {}
    serial.run(
        forces,
        (nsteps + 1) * serial.dt,
        callback=lambda k, t, u: ref.__setitem__("u", u.copy())
        if k == nsteps
        else None,
    )

    print(f"mesh: {mesh.nelem} elements, {mesh.nnode} grid points")
    for nranks in (2, 4, 8):
        parts = rcb_partition(mesh.elem_centers, nranks)
        world = SimWorld(nranks)
        dist = DistributedWaveSolver(mesh, mat, parts, world, dt=serial.dt)
        u = dist.run(forces, 0.3)
        err = np.abs(u - ref["u"]).max() / max(np.abs(ref["u"]).max(), 1e-30)
        stats = world.total_stats()
        print(
            f"  {nranks} ranks: max deviation from serial {err:.2e}; "
            f"{stats.messages_sent:,} messages, "
            f"{stats.bytes_sent / 1e6:.2f} MB exchanged, "
            f"{stats.flops / 1e9:.2f} Gflop executed"
        )

    # machine-model scalability of a larger mesh (mini Table 2.1)
    big = extract_mesh(
        build_adaptive_octree(lambda c, s: np.full(len(c), 1 / 32),
                              max_level=6),
        L=L,
    )
    rows = [
        predict_scalability(big, p, model_name="demo")
        for p in (1, 4, 16, 64)
    ]
    print("\nAlphaServer machine-model scalability of a "
          f"{big.nnode:,}-point mesh:")
    print(format_table(rows))


if __name__ == "__main__":
    main()
