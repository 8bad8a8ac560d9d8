"""3D elastic material inversion (the paper's stated next step).

The paper presents 2D antiplane inversions and announces that "results
from 3D inversion will be presented at SC2003".  This module supplies
that capability for the hexahedral elastic solver: invert the Lamé
fields ``(lambda(x), mu(x))`` — parameterized on a coarse 3D material
grid — from three-component records, as the hooks of the same
:class:`~repro.inverse.problem.LeastSquaresProblem` the scalar problem
uses:

* forward: the forward solver's one loop,
  :func:`~repro.solver.wave_solver.march_clustered`, over one
  :func:`~repro.solver.wave_solver.whole_level` — a lumped-mass,
  Lysmer-damped row set of every node (conforming meshes; the Stacey
  ``c1`` coupling and hanging projection are solver features not
  needed for the exactness result here);
* adjoint: the same dissipative leapfrog backward in time;
* material equations: per-element accumulations against the two
  reference stiffness matrices (``K_e = h (lambda K_l + mu K_m)``) and
  the material-dependent boundary impedances of the forward solvers'
  :class:`~repro.physics.stacey.StaceyBoundary`
  (``d1 = sqrt(rho (lambda + 2 mu))``, ``d2 = sqrt(rho mu)``).

Gradients are exact at the discrete level (FD-verified in the tests);
Gauss-Newton Hessian-vector products cost one incremental forward plus
one adjoint solve, so :func:`repro.inverse.gauss_newton_cg` drives this
problem unchanged.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from repro.backend import get_backend
from repro.fem.assembly import lumped_mass
from repro.fem.hex_element import hex_elastic_reference
from repro.inverse.parametrization import MaterialGrid
from repro.inverse.problem import LeastSquaresProblem, Shot
from repro.inverse.regularization import TotalVariation
from repro.mesh.hexmesh import HexMesh
from repro.physics.stacey import StaceyBoundary
from repro.solver.frame import MarchFrame
from repro.solver.wave_solver import (
    DEFAULT_ABSORBING,
    drain,
    march_clustered,
    restrict,
    whole_level,
)


class _ElasticKernel:
    """Coefficient-parameterized stiffness actions and their material
    derivatives on the backend element kernel: bound handles,
    time-batched row blocks, and a handle behind the operator interface
    the forward solver's march applies."""

    def __init__(self, mesh: HexMesh):
        self.h = mesh.elem_h
        self.nnode = mesh.nnode
        self._kernel = get_backend().element_kernel(
            mesh.conn, hex_elastic_reference(), mesh.nnode, ncomp=3
        )

    def bind(self, lam_e, mu_e) -> np.ndarray:
        """Handle of ``K(lambda, mu)`` (``K_e = h (lambda K_l + mu
        K_m)``); a sweep binds once."""
        return self._kernel.bind(
            (np.asarray(lam_e, float) * self.h, np.asarray(mu_e, float) * self.h)
        )

    def operator(self, lam_e, mu_e) -> SimpleNamespace:
        """``K(lambda, mu)``, bound once, as the operator a march
        applies: ``nnode``, ``matvec(u, out)`` and ``flops_per_matmat``."""
        return SimpleNamespace(
            nnode=self.nnode,
            matvec=partial(self.apply, self.bind(lam_e, mu_e)),
            flops_per_matmat=self._kernel.flops_per_matmat,
        )

    def apply(self, K: np.ndarray, u: np.ndarray, out: np.ndarray):
        """``out = K u`` for one ``(nnode, 3)`` state."""
        self._kernel.matvec(u.reshape(-1), out.reshape(-1), K)
        return out

    def apply_rows(self, K: np.ndarray, u: np.ndarray, out: np.ndarray):
        """``out[t] = K u[t]`` over a history ``(nt, nnode, 3)``; row
        ``t`` is bit-identical to :meth:`apply`."""
        self._kernel.matrows(
            u.reshape(len(u), -1), out.reshape(len(u), -1), K
        )
        return out

    def K_material_gradient_batch(
        self, u: np.ndarray, lam_adj: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(sum_t adj^T dK/dlambda_e u, sum_t adj^T dK/dmu_e u)`` for
        time-batched fields of shape ``(nt, nnode, 3)``."""
        g_l, g_m = self._kernel.coef_gradient(
            u.reshape(len(u), -1), lam_adj.reshape(len(u), -1)
        )
        return self.h * g_l, self.h * g_m


class ElasticInverseProblem(LeastSquaresProblem):
    """Invert ``(lambda, mu)`` of a 3D elastic model from 3-component
    records.

    The parameter vector is ``m = [lambda_nodes; mu_nodes]`` on a 3D
    :class:`MaterialGrid` (pass a grid whose cells match the wave
    elements for per-element inversion).  Density is known and fixed.

    Parameters
    ----------
    mesh:
        Conforming hexahedral mesh (uniform refinement level).
    rho:
        Known density per element.
    receivers:
        Node indices; ``data`` has shape ``(nsteps+1, nrec, 3)``.
    forces:
        Nodal force callable ``forces(t) -> (nnode, 3)`` (material-
        independent sources, e.g. point forces / moment stencils).
    """

    def __init__(
        self,
        mesh: HexMesh,
        grid: MaterialGrid,
        rho: np.ndarray,
        receivers: np.ndarray,
        data: np.ndarray,
        dt: float,
        nsteps: int,
        forces: Callable[[float], np.ndarray],
        *,
        absorbing: Sequence[tuple[int, int]] = DEFAULT_ABSORBING,
        reg_lambda: float = 0.0,
        barrier_gamma: float = 0.0,
        mu_min: float = 0.0,
    ):
        if len(np.unique(mesh.elem_level)) > 1:
            raise ValueError("elastic inversion requires a conforming mesh")
        shot = Shot(receivers, data)
        if shot.data.shape != (nsteps + 1, len(shot.receivers), 3):
            raise ValueError("data must be (nsteps+1, nrec, 3)")
        if grid.d != 3:
            raise ValueError("elastic inversion needs a 3D material grid")
        super().__init__(
            [shot], dt, nsteps, barrier_gamma=barrier_gamma, mu_min=mu_min
        )
        self.mesh = mesh
        self.grid = grid
        self.kernel = _ElasticKernel(mesh)
        self.boundary = StaceyBoundary(mesh, absorbing)
        self.rho_e = np.asarray(rho, dtype=float)
        self.mass = lumped_mass(mesh.conn, mesh.elem_h, self.rho_e, mesh.nnode)
        self.forces = forces
        self.P = grid.interpolation_matrix(mesh.elem_centers)
        self.nhalf = grid.n
        self.reg_lambda = float(reg_lambda)
        # quadratic smoothing on each field: TV with a huge eps
        # degenerates to H1
        self._reg = (
            TotalVariation(grid, self.reg_lambda, eps=1e6)
            if self.reg_lambda > 0 else None
        )

    # ----------------------------------------------------------- plumbing

    def split(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return m[: self.nhalf], m[self.nhalf :]

    def fields(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lam_n, mu_n = self.split(np.asarray(m, dtype=float))
        return self.P @ lam_n, self.P @ mu_n

    def penalties(self) -> list:
        if self._reg is None:
            return []
        n = self.nhalf
        return [(slice(None, n), self._reg), (slice(n, None), self._reg)]

    # -------------------------------------------------------------- hooks

    def model(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lam_e, mu_e = self.fields(m)
        if np.any(mu_e <= 0) or np.any(lam_e <= 0):
            raise FloatingPointError("non-positive Lamé field")
        return lam_e, mu_e

    def sources(self, model):
        dt = self.dt

        def forcing(k):
            b = self.forces(k * dt)
            return dt**2 * b if b is not None else None

        return forcing

    def march(self, model, forcing) -> np.ndarray:
        """The forward solver's march over one level, the conforming,
        Lysmer-damped row set of all nodes, from ``u^0 = u^1 = 0`` (it
        starts at step 1), with ``dtc2 = 1`` because the forcings here
        arrive scaled by ``dt^2``; an ``observe`` hook stores the
        history ``(nsteps + 1, nnode, 3)``."""
        lam_e, mu_e = model
        C, _ = self.boundary.matrices(
            lam_e, mu_e, self.rho_e, include_c1=False
        )
        co = {**restrict(self.mass, C, self.dt), "dtc2": 1.0}
        hist = np.zeros((self.nsteps + 1, self.mesh.nnode, 3))

        def store(li, k, lev, u_prev, u, u_next):
            hist[k + 1] = u_next

        drain(march_clustered(
            [whole_level(self.kernel.operator(lam_e, mu_e), co)], forcing,
            MarchFrame(self.nsteps), count=lambda kind, flops: None,
            observe=[store], resume={"k0": 1},
        ))
        return hist

    def accumulate(self, state, L: np.ndarray) -> np.ndarray:
        """Per-element ``(g_lambda, g_mu)`` stacked as one vector on the
        material grid via ``P^T``."""
        dt = self.dt
        N = self.nsteps
        u = state.u
        lam_e, mu_e = state.model
        g_l, g_m = self.kernel.K_material_gradient_batch(u[1:N], L)
        g_l *= dt**2
        g_m *= dt**2
        chunk = 32
        for k0 in range(1, N, chunk):
            k1 = min(k0 + chunk, N)
            bl, bm = self.boundary.material_gradient_batch(
                u[k0 + 1 : k1 + 1] - u[k0 - 1 : k1 - 1],
                L[k0 - 1 : k1 - 1],
                lam_e, mu_e, self.rho_e,
            )
            g_l += 0.5 * dt * bl
            g_m += 0.5 * dt * bm
        return np.concatenate([self.P.T @ g_l, self.P.T @ g_m])

    def incremental_forcing(self, state, v: np.ndarray) -> np.ndarray:
        """``F[k-1] = -(dt/2) C_delta (u^{k+1} - u^{k-1}) - dt^2 K(dlam,
        dmu) u^k``, with ``K(dlam, dmu)`` applied to the history in one
        pass."""
        dt = self.dt
        N = self.nsteps
        u = state.u
        dlam_e, dmu_e = self.fields(v)
        C_delta = self.boundary.damping_perturbation(
            *state.model, self.rho_e, dlam_e, dmu_e
        )
        F = self.kernel.apply_rows(
            self.kernel.bind(dlam_e, dmu_e), u[1:N], np.empty(u[1:N].shape)
        )
        F *= -(dt**2)
        D = u[2 : N + 1] - u[0 : N - 1]
        D *= -0.5 * dt * C_delta
        F += D
        return F
