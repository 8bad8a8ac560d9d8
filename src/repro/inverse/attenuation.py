"""Attenuation inversion (the paper's third unknown class).

The summary names "determining source, elastic, and **attenuation**
parameters for complex 3D basins" as the target inverse problem.  This
module inverts a mass-proportional Rayleigh damping field ``alpha(x)``
(the solver's anelasticity model at the discrete level) with the
elastic structure fixed, from receiver records — the same
discretize-then-optimize recipe as the other parameter classes.

The forward model is linear in ``alpha`` through the damping matrix
(``dC/dalpha_e`` is a constant lumping stencil), so the accumulation

    ``g_e = (dt/2) sum_k lam^{k+1,T} (dC/dalpha_e) (u^{k+1} - u^{k-1})``

is exact, and the Gauss-Newton product costs the usual one incremental
forward plus one adjoint solve.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.inverse.parametrization import MaterialGrid
from repro.inverse.problem import LeastSquaresProblem, Shot
from repro.solver.scalarwave import RegularGridScalarWave


class AttenuationInverseProblem(LeastSquaresProblem):
    """Invert the damping field ``alpha`` with ``mu`` known and fixed.

    Parameters mirror :class:`ScalarWaveInverseProblem`; ``m`` holds
    nodal ``alpha`` values on the material grid (1/s units).
    """

    def __init__(
        self,
        solver: RegularGridScalarWave,
        grid: MaterialGrid,
        mu_e: np.ndarray,
        receivers: np.ndarray,
        data: np.ndarray,
        dt: float,
        nsteps: int,
        forcing: Callable[[int], np.ndarray],
        *,
        barrier_gamma: float = 0.0,
        alpha_min: float = -1e-12,
    ):
        super().__init__(
            [Shot(receivers, data)], dt, nsteps,
            barrier_gamma=barrier_gamma, mu_min=alpha_min,
        )
        self.solver = solver
        self.grid = grid
        self.P = grid.to_elements(solver)
        self.mu_e = np.asarray(mu_e, dtype=float)
        self.forcing = forcing

    # -------------------------------------------------------------- hooks

    def model(self, m: np.ndarray) -> np.ndarray:
        alpha_e = self.P @ m
        if np.any(alpha_e < 0):
            raise FloatingPointError("negative attenuation")
        return alpha_e

    def sources(self, alpha_e: np.ndarray):
        return self.forcing

    def march(self, alpha_e: np.ndarray, forcing) -> np.ndarray:
        return self.solver.march(
            self.mu_e, forcing, self.nsteps, self.dt, store=True,
            alpha=alpha_e,
        )

    def accumulate(self, state, L: np.ndarray) -> np.ndarray:
        N = self.nsteps
        dt = self.dt
        u = state.u
        g = np.zeros(self.solver.nelem)
        chunk = 128
        for k0 in range(1, N, chunk):
            ks = np.arange(k0, min(k0 + chunk, N))
            g += 0.5 * dt * self.solver.alpha_material_gradient_batch(
                u[ks + 1] - u[ks - 1], L[ks - 1]
            )
        return self.P.T @ g

    def incremental_forcing(self, state, v: np.ndarray) -> np.ndarray:
        """``F[k-1] = -(dt/2) C(dalpha) (u^{k+1} - u^{k-1})``, ``dalpha
        = P v``."""
        u = state.u
        N = self.nsteps
        D = u[2 : N + 1] - u[0 : N - 1]
        D *= -0.5 * self.dt * self.solver.volume_damping_diag(self.P @ v)
        return D
