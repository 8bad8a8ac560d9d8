"""Linear tetrahedral baseline wave solver (the group's earlier code).

Grid-point-based data structures: the per-element 12x12 stiffness
matrices are stored explicitly (constant-gradient linear tets have no
shared reference matrix across the mixed shapes of the 6-tet split), so
memory per grid point is roughly an order of magnitude above the
hexahedral code — the comparison the paper reports.

Absorbing boundaries use the viscous (Lysmer) damping terms only, so
the baseline's nodes are one conforming Lysmer row set and its run is
the hexahedral solver's one loop
(:func:`~repro.solver.wave_solver.march_clustered`) over a single
:func:`~repro.solver.wave_solver.whole_level` around the stored-matrix
stiffness product.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backend import get_backend
from repro.fem.tet_element import tet_elastic_stiffness, tet_lumped_mass
from repro.io.seismogram import ReceiverArray, Seismograms
from repro.mesh.hexmesh import HexMesh
from repro.mesh.tetmesh import TetMesh, hex_to_tet_mesh
from repro.physics.cfl import stable_timestep
from repro.physics.elastic import lame_from_velocities
from repro.physics.stacey import StaceyBoundary
from repro.solver.frame import MarchFrame
from repro.solver.wave_solver import (
    DEFAULT_ABSORBING,
    drain,
    forcing,
    march_clustered,
    receiver_slots,
    record_receivers,
    restrict,
    whole_level,
)
from repro.telemetry.metrics import CategoryCounter


class TetWaveSolver:
    """Explicit elastodynamics on the 6-tets-per-hex baseline mesh."""

    def __init__(
        self,
        mesh: HexMesh,
        material,
        *,
        absorbing: Sequence[tuple[int, int]] = DEFAULT_ABSORBING,
        dt: float | None = None,
        cfl_safety: float = 0.5,
    ):
        self.hexmesh = mesh
        self.tet: TetMesh = hex_to_tet_mesh(mesh)
        centers = self.tet.coords[self.tet.conn].mean(axis=1)
        vs, vp, rho = material.query(centers)
        lam, mu = lame_from_velocities(vs, vp, rho)
        self.Ke = tet_elastic_stiffness(self.tet.coords, self.tet.conn, lam, mu)
        self.m = tet_lumped_mass(self.tet.coords, self.tet.conn, rho, self.tet.nnode)
        # boundary damping reuses the hex faces (shared nodes)
        hvs, hvp, hrho = material.query(mesh.elem_centers)
        hlam, hmu = lame_from_velocities(hvs, hvp, hrho)
        self.C_diag, _ = StaceyBoundary(mesh, absorbing).matrices(
            hlam, hmu, hrho, include_c1=False
        )
        hmin = mesh.elem_h.min() / 2.0  # shortest tet edge scale
        self.dt = dt if dt is not None else stable_timestep(
            np.full(self.tet.nelem, hmin), vp, safety=cfl_safety
        )
        # per-element dense matrices: the varying-matrix kernel (no
        # shared reference matrix exists for the 6-tet split)
        self._kernel = get_backend().varmat_kernel(
            self.tet.conn, self.Ke, self.tet.nnode, ncomp=3
        )
        self.flops = CategoryCounter()

    @property
    def nnode(self) -> int:
        return self.tet.nnode

    def memory_bytes(self) -> int:
        n = self.Ke.nbytes  # dominant: per-element dense stiffness
        n += self.tet.conn.nbytes
        n += self._kernel.workspace_bytes()
        # the one level's x_prev, x, K x (also x_next and the update's
        # scratch), r and the forcing block, and its own-row index
        n += 8 * 3 * self.nnode * 5 + 8 * self.nnode
        n += self.m.nbytes + self.C_diag.nbytes
        return n

    @property
    def flops_per_matvec(self) -> int:
        """Kernel-provided count: dense per-element apply + scatter adds."""
        return self._kernel.flops_per_matvec

    def flops_per_matmat(self, width: int) -> int:
        return self._kernel.flops_per_matmat(width)

    def matvec(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((self.nnode, 3))
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        self._kernel.matvec(
            np.ascontiguousarray(u).reshape(-1), out.reshape(-1)
        )
        return out

    def run(
        self,
        forces,
        t_end: float,
        *,
        receivers: ReceiverArray | None = None,
        record: str = "velocity",
    ) -> Seismograms | None:
        dt = self.dt
        nsteps = int(np.ceil(t_end / dt))
        levels = [whole_level(self, restrict(self.m, self.C_diag, dt))]
        observe = ()
        if receivers is not None:
            data = receivers.allocate(3, nsteps)
            slots = [receiver_slots(levels, receivers)]
            observe = [record_receivers([data], slots, record, dt)]
        drain(march_clustered(
            levels, forcing(forces, self.nnode, dt), MarchFrame(nsteps),
            count=self.flops.add, observe=observe,
        ))
        if receivers is None:
            return None
        return Seismograms(
            data=data, dt=dt, kind=record, positions=receivers.positions
        )
