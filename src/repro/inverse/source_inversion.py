"""Source inversion (paper Section 3.2, Figure 3.3).

With the material fixed, invert the fault source fields — dislocation
amplitude ``u0(x)``, rise time ``t0(x)``, delay time ``T(x)`` — from
receiver records.  The parameter derivatives of the slip function are
analytic (:mod:`repro.sources.slip`), the adjoint is the same backward
leapfrog, and Tikhonov regularization penalizes oscillations of each
field along the fault (paper eq. 3.5-3.7).
"""

from __future__ import annotations

import numpy as np

from repro.inverse.fault_source import FaultLineSource2D, SourceParams
from repro.inverse.problem import LeastSquaresProblem, Shot
from repro.inverse.regularization import Tikhonov1D
from repro.solver.scalarwave import RegularGridScalarWave


class SourceInverseProblem(LeastSquaresProblem):
    """Invert ``(u0, t0, T)`` on the fault; parameters are packed as a
    single vector ``[u0; t0; T]`` for the Gauss-Newton driver.

    Physical bounds: ``t0 > 0`` is required for a well-defined slip
    function; the ``barrier_gamma`` log-barrier keeps ``t0`` and ``u0``
    above ``p_min`` (``T`` may be any non-negative delay).
    """

    def __init__(
        self,
        solver: RegularGridScalarWave,
        fault: FaultLineSource2D,
        mu_e: np.ndarray,
        receivers: np.ndarray,
        data: np.ndarray,
        dt: float,
        nsteps: int,
        *,
        beta_u0: float = 0.0,
        beta_t0: float = 0.0,
        beta_T: float = 0.0,
        barrier_gamma: float = 0.0,
        p_min: float = 1e-3,
    ):
        super().__init__(
            [Shot(receivers, data)], dt, nsteps,
            barrier_gamma=barrier_gamma, mu_min=p_min,
        )
        self.solver = solver
        self.fault = fault
        self.mu_e = np.asarray(mu_e, dtype=float)
        ns = self.ns = fault.ns
        h = solver.h
        self.reg_u0 = Tikhonov1D(ns, h, beta_u0)
        self.reg_t0 = Tikhonov1D(ns, h, beta_t0)
        self.reg_T = Tikhonov1D(ns, h, beta_T)
        # the barrier covers u0 and t0; T is unconstrained from above
        self.barrier_rows = slice(None, 2 * ns)

    def penalties(self) -> list:
        ns = self.ns
        return [
            (slice(None, ns), self.reg_u0),
            (slice(ns, 2 * ns), self.reg_t0),
            (slice(2 * ns, None), self.reg_T),
        ]

    # -------------------------------------------------------------- hooks

    def model(self, x: np.ndarray) -> SourceParams:
        return SourceParams.unpack(x)

    def sources(self, p: SourceParams):
        return self.fault.forcing(self.mu_e, p, self.dt)

    def march(self, p: SourceParams, forcing) -> np.ndarray:
        return self.solver.march(
            self.mu_e, forcing, self.nsteps, self.dt, store=True
        )

    def accumulate(self, state, L: np.ndarray) -> np.ndarray:
        """``-dt^2 sum_k lam^{k+1,T} db^k/dp`` packed as ``[u0; t0; T]``
        (time-batched)."""
        from repro.sources.slip import dslip_dT, dslip_dt0, slip_function

        dt = self.dt
        N = self.nsteps
        p = state.model
        mu_s = self.mu_e[self.fault.elems]
        g_u0 = np.zeros(self.ns)
        g_t0 = np.zeros(self.ns)
        g_T = np.zeros(self.ns)
        chunk = 128
        for k0 in range(1, N, chunk):
            ks = np.arange(k0, min(k0 + chunk, N))
            proj = np.einsum(
                "tsf,f->ts", L[ks - 1][:, self.fault.nodes], self.fault.w
            )
            t = (ks * dt)[:, None]
            T, t0, u0 = p.T[None, :], p.t0[None, :], p.u0[None, :]
            base = proj * mu_s[None, :]
            g_u0 -= dt**2 * np.sum(base * slip_function(t, T, t0), axis=0)
            g_t0 -= dt**2 * np.sum(base * u0 * dslip_dt0(t, T, t0), axis=0)
            g_T -= dt**2 * np.sum(base * u0 * dslip_dT(t, T, t0), axis=0)
        return np.concatenate([g_u0, g_t0, g_T])

    def incremental_forcing(self, state, v: np.ndarray) -> np.ndarray:
        """``dt^2 (db/dp) dp`` on the fault nodes, ``dp = v``."""
        N = self.nsteps
        F = np.zeros(state.u[1:N].shape)
        F[:, self.fault.unodes] = self.fault.perturbation_rows(
            self.mu_e, state.model, SourceParams.unpack(v), np.arange(1, N),
            self.dt,
        )
        return F
