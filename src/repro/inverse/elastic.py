"""3D elastic material inversion (the paper's stated next step).

The paper presents 2D antiplane inversions and announces that "results
from 3D inversion will be presented at SC2003".  This module supplies
that capability for the hexahedral elastic solver: invert the Lamé
fields ``(lambda(x), mu(x))`` — parameterized on a coarse 3D material
grid — from three-component records, as the hooks of the same
:class:`~repro.inverse.problem.LeastSquaresProblem` the scalar problem
uses:

* forward: the forward solver's explicit update,
  :func:`~repro.solver.wave_solver.elastic_update`, on a lumped-mass,
  Lysmer-damped row set (conforming meshes; the Stacey ``c1`` coupling
  and hanging projection are solver features not needed for the
  exactness result here);
* adjoint: the same dissipative leapfrog backward in time;
* material equations: per-element accumulations against the two
  reference stiffness matrices (``K_e = h (lambda K_l + mu K_m)``) and
  the material-dependent boundary impedances
  (``d1 = sqrt(rho (lambda + 2 mu))``, ``d2 = sqrt(rho mu)``).

Gradients are exact at the discrete level (FD-verified in the tests);
Gauss-Newton Hessian-vector products cost one incremental forward plus
one adjoint solve, so :func:`repro.inverse.gauss_newton_cg` drives this
problem unchanged.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.backend import get_backend
from repro.fem.assembly import lumped_mass
from repro.fem.hex_element import hex_elastic_reference
from repro.inverse.parametrization import MaterialGrid
from repro.inverse.problem import LeastSquaresProblem, Shot
from repro.inverse.regularization import TotalVariation
from repro.mesh.hexmesh import HexMesh
from repro.solver.wave_solver import (
    DEFAULT_ABSORBING,
    elastic_update,
    lysmer_row_set,
)


class _ElasticKernel:
    """Coefficient-parameterized stiffness actions and their material
    derivatives on the backend element kernel — the same bound handles
    and time-batched row blocks as the scalar inversion."""

    def __init__(self, mesh: HexMesh):
        self.h = mesh.elem_h
        self._kernel = get_backend().element_kernel(
            mesh.conn, hex_elastic_reference(), mesh.nnode, ncomp=3
        )

    def bind(self, lam_e, mu_e) -> np.ndarray:
        """Handle of ``K(lambda, mu)`` (``K_e = h (lambda K_l + mu
        K_m)``); a sweep binds once."""
        return self._kernel.bind(
            (np.asarray(lam_e, float) * self.h, np.asarray(mu_e, float) * self.h)
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


class _LysmerBoundary:
    """Material-differentiable absorbing damping (d1/d2 terms only)."""

    def __init__(self, mesh: HexMesh, absorbing: Sequence[tuple[int, int]]):
        self.faces = []
        for axis, side in absorbing:
            idx, fnodes = mesh.boundary_faces(axis, side)
            self.faces.append((axis, idx, fnodes, mesh.elem_h[idx] ** 2 / 4.0))
        self.nnode = mesh.nnode

    def damping_diag(self, lam_e, mu_e, rho_e) -> np.ndarray:
        C = np.zeros((self.nnode, 3))
        for axis, idx, fnodes, area4 in self.faces:
            d1 = np.sqrt(rho_e[idx] * (lam_e[idx] + 2.0 * mu_e[idx]))
            d2 = np.sqrt(rho_e[idx] * mu_e[idx])
            for comp in range(3):
                d = d1 if comp == axis else d2
                np.add.at(
                    C[:, comp], fnodes.ravel(), np.repeat(d * area4, 4)
                )
        return C

    def damping_perturbation(
        self, lam_e, mu_e, rho_e, dlam_e, dmu_e
    ) -> np.ndarray:
        """``(dC/dlambda) dlam + (dC/dmu) dmu`` as a nodal diagonal."""
        out = np.zeros((self.nnode, 3))
        for axis, idx, fnodes, area4 in self.faces:
            d1 = np.sqrt(rho_e[idx] * (lam_e[idx] + 2.0 * mu_e[idx]))
            d2 = np.sqrt(rho_e[idx] * mu_e[idx])
            dd1 = rho_e[idx] * (dlam_e[idx] + 2.0 * dmu_e[idx]) / (2.0 * d1)
            dd2 = rho_e[idx] * dmu_e[idx] / (2.0 * d2)
            for comp in range(3):
                dd = dd1 if comp == axis else dd2
                np.add.at(
                    out[:, comp], fnodes.ravel(), np.repeat(dd * area4, 4)
                )
        return out

    def material_gradient_batch(
        self, w: np.ndarray, adj: np.ndarray, lam_e, mu_e, rho_e
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(sum_t adj^T dC/dlambda_e w, sum_t adj^T dC/dmu_e w)`` for
        time-batched nodal fields ``(nt, nnode, 3)``."""
        nelem = len(lam_e)
        g_l = np.zeros(nelem)
        g_m = np.zeros(nelem)
        for axis, idx, fnodes, area4 in self.faces:
            d1 = np.sqrt(rho_e[idx] * (lam_e[idx] + 2.0 * mu_e[idx]))
            d2 = np.sqrt(rho_e[idx] * mu_e[idx])
            # contraction of adj*w over the face nodes, per component
            for comp in range(3):
                contrib = np.einsum(
                    "tsf,tsf->s",
                    adj[:, fnodes, comp],
                    w[:, fnodes, comp],
                ) * area4
                if comp == axis:
                    np.add.at(g_l, idx, contrib * rho_e[idx] / (2.0 * d1))
                    np.add.at(g_m, idx, contrib * rho_e[idx] / d1)
                else:
                    np.add.at(g_m, idx, contrib * rho_e[idx] / (2.0 * d2))
        return g_l, g_m


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
        self.boundary = _LysmerBoundary(mesh, absorbing)
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

    # ------------------------------------------------------------ forward

    def _march(self, lam_e, mu_e, forcing, *, store=True):
        """Vector leapfrog, same convention as the scalar substrate:
        every step is :func:`~repro.solver.wave_solver.elastic_update`
        on the conforming, Lysmer-damped row set of all nodes — the
        forward solver's update — with ``dtc2 = 1`` because the
        forcings here arrive scaled by ``dt^2``.  Buffer rotation keeps
        the loop free of per-step O(nnode) heap allocations."""
        N = self.nsteps
        C = self.boundary.damping_diag(lam_e, mu_e, self.rho_e)
        co = {**lysmer_row_set(self.mass, C, self.dt), "dtc2": 1.0}
        K = self.kernel.bind(lam_e, mu_e)  # one fold per march
        x_prev, x, x_next, r, tmp, Kx = (
            np.zeros((self.mesh.nnode, 3)) for _ in range(6)
        )
        hist = np.zeros((N + 1, *x.shape)) if store else None
        for k in range(1, N):
            f = forcing(k)
            self.kernel.apply(K, x, Kx)
            elastic_update(co, x, Kx, None, x_prev, f, x, r, tmp, None, x_next)
            if store:
                hist[k + 1] = x_next
            x_prev, x, x_next = x, x_next, x_prev
        return hist if store else np.stack([x_prev, x])

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
        return self._march(*model, forcing)

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
