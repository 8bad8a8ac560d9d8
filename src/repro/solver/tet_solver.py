"""Linear tetrahedral baseline wave solver (the group's earlier code).

Grid-point-based data structures: the per-element 12x12 stiffness
matrices are stored explicitly (constant-gradient linear tets have no
shared reference matrix across the mixed shapes of the 6-tet split), so
memory per grid point is roughly an order of magnitude above the
hexahedral code — the comparison the paper reports.

Absorbing boundaries use the viscous (Lysmer) damping terms only, so
the baseline's nodes are one conforming Lysmer row set and its time
step is the hexahedral solver's own central-difference update
(:func:`~repro.solver.wave_solver.elastic_update`) around the stored-
matrix stiffness product.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.backend import get_backend
from repro.fem.tet_element import tet_elastic_stiffness, tet_lumped_mass
from repro.io.seismogram import ReceiverArray, Seismograms
from repro.mesh.hexmesh import HexMesh
from repro.mesh.tetmesh import TetMesh, hex_to_tet_mesh
from repro.physics.cfl import stable_timestep
from repro.physics.elastic import lame_from_velocities
from repro.physics.stacey import stacey_boundary_matrices, stacey_coefficients
from repro.solver.wave_solver import (
    DEFAULT_ABSORBING,
    elastic_update,
    lysmer_row_set,
)
from repro.util.flops import FlopCounter


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
        faces = []
        hvs, hvp, hrho = material.query(mesh.elem_centers)
        hlam, hmu = lame_from_velocities(hvs, hvp, hrho)
        for axis, side in absorbing:
            idx, fnodes = mesh.boundary_faces(axis, side)
            coeffs = stacey_coefficients(hlam[idx], hmu[idx], hrho[idx])
            faces.append((fnodes, mesh.elem_h[idx], axis, side, coeffs))
        self.C_diag, _ = stacey_boundary_matrices(
            faces, mesh.nnode, include_c1=False
        )
        hmin = mesh.elem_h.min() / 2.0  # shortest tet edge scale
        self.dt = dt if dt is not None else stable_timestep(
            np.full(self.tet.nelem, hmin), vp, safety=cfl_safety
        )
        self._dof = (
            self.tet.conn[:, :, None] * 3 + np.arange(3)[None, None, :]
        ).reshape(self.tet.nelem, 12)
        self._dof_flat = self._dof.ravel()
        # per-element dense matrices: the varying-matrix kernel (no
        # shared reference matrix exists for the 6-tet split)
        self._kernel = get_backend().varmat_kernel(
            self.tet.conn, self.Ke, self.tet.nnode, ncomp=3
        )
        self.flops = FlopCounter()

    @property
    def nnode(self) -> int:
        return self.tet.nnode

    def memory_bytes(self) -> int:
        n = self.Ke.nbytes  # dominant: per-element dense stiffness
        n += self.tet.conn.nbytes
        n += self._kernel.workspace_bytes()
        n += 8 * 3 * self.nnode * 7  # u_prev, u, u_next, r, Ku, tmp, fbuf
        n += self.m.nbytes + self.C_diag.nbytes
        return n

    def matvec(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((self.nnode, 3))
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        self._kernel.matvec(
            np.ascontiguousarray(u).reshape(-1), out.reshape(-1)
        )
        # kernel-provided count (dense per-element apply + scatter adds)
        self.flops.add("stiffness", self._kernel.flops_per_matvec)
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
        shape = (self.nnode, 3)
        co = lysmer_row_set(self.m, self.C_diag, dt)
        u_prev, u, u_next = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        r, Ku, tmp = np.empty(shape), np.empty(shape), np.empty(shape)
        if hasattr(forces, "forces_at"):
            force_fn = lambda t, out: forces.forces_at(t, out)
        else:
            force_fn = forces
        fbuf = np.zeros(shape)
        data = receivers.allocate(3, nsteps) if receivers is not None else None
        for k in range(nsteps):
            t = k * dt
            self.matvec(u, out=Ku)
            b = force_fn(t, fbuf)
            elastic_update(co, u, Ku, None, u_prev, b, u, r, tmp, None, u_next)
            if receivers is not None:
                if record == "velocity":
                    data[:, :, k] = (
                        u_next[receivers.nodes] - u_prev[receivers.nodes]
                    ) / (2 * dt)
                else:
                    data[:, :, k] = u[receivers.nodes]
            u_prev, u, u_next = u, u_next, u_prev
        if receivers is None:
            return None
        return Seismograms(
            data=data, dt=dt, kind=record, positions=receivers.positions
        )
