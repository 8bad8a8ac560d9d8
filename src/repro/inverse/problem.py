"""Material inverse problem: misfit, exact discrete gradient, GN Hv.

Discretize-then-optimize on the leapfrog recurrence

    ``A+ u^{k+1} = (2M - dt^2 K(mu)) u^k - A- u^{k-1} + dt^2 b^k(mu)``

(``A+- = M +- (dt/2) C(mu)``, states ``u^0 = u^1 = 0``), with the
least-squares misfit ``J = (dt/2) sum_k sum_r (u^k_r - d^k_r)^2``.

The first-order conditions give the **adjoint recurrence** — the same
dissipative leapfrog run backward with the receiver residuals as
sources (paper eq. 3.3) — and the **material equation** (paper eq. 3.4)
as the per-element accumulation

    ``g_e = sum_k lam^{k+1,T} [ dt^2 K_e u^k
            + (dt/2) C_e (u^{k+1} - u^{k-1}) - dt^2 db^k/dmu_e ]``

which includes the absorbing-boundary and fault-coupling terms the
paper's strong form carries.  Everything is exact at the discrete
level, so the gradient matches finite differences to roundoff-limited
accuracy — the property Newton-CG convergence rests on.

Gauss-Newton Hessian-vector products cost one incremental forward and
one incremental adjoint solve, matching the paper's "each CG iteration
requires one forward and one adjoint wave propagation solution".  The
incremental forcing is tabulated over the stored forward history before
the march starts (one time-batched ``K(dmu)`` pass), so the march itself
only ever applies ``K(mu)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.inverse.fault_source import FaultLineSource2D, SourceParams
from repro.inverse.parametrization import MaterialGrid
from repro.inverse.regularization import TotalVariation
from repro.resilience import check_finite
from repro.solver.scalarwave import RegularGridScalarWave, batched_forcing

from repro import telemetry


def gaussian_time_kernel(dt: float, f_cut: float, *, width: float = 4.0) -> np.ndarray:
    """Symmetric Gaussian low-pass kernel for frequency continuation.

    Standard deviation ``sigma = 1 / (2 pi f_cut)`` seconds, sampled on
    the leapfrog lattice and normalized to unit sum (so a constant
    residual passes through unchanged).
    """
    if f_cut <= 0 or dt <= 0:
        raise ValueError("need positive dt and f_cut")
    sigma = 1.0 / (2.0 * np.pi * f_cut)
    half = max(1, int(np.ceil(width * sigma / dt)))
    t = np.arange(-half, half + 1) * dt
    w = np.exp(-0.5 * (t / sigma) ** 2)
    return w / w.sum()


@dataclass
class Shot:
    """One seismic event: its receiver set, observed records, and
    sources.  A multi-shot inversion sums the misfit over shots and
    runs all of them through *one* batched forward/adjoint march per
    gradient evaluation (the shots share the material iterate, so the
    wave operator is common — only the forcing columns differ)."""

    receivers: np.ndarray
    data: np.ndarray  # (nsteps + 1, nrec)
    fault: FaultLineSource2D | None = None
    source_params: SourceParams | None = None
    extra_forcing: Callable[[int], np.ndarray] | None = None

    def __post_init__(self):
        self.receivers = np.asarray(self.receivers, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=float)


@dataclass
class ForwardState:
    """Cached sweep results reused by Hessian-vector products."""

    m: np.ndarray
    mu_e: np.ndarray
    u: np.ndarray  # (nsteps+1, nnode) — or (nsteps+1, nnode, B) multi-shot
    residuals: list = field(default_factory=list)  # (nsteps+1, nrec) per shot

    @property
    def residual(self) -> np.ndarray:
        """The single-shot residual (errors on multi-shot states, where
        no one residual is canonical — use ``residuals``)."""
        if len(self.residuals) != 1:
            raise ValueError("multi-shot state: use .residuals")
        return self.residuals[0]


class ScalarWaveInverseProblem:
    """Invert the shear modulus field from receiver records.

    Parameters
    ----------
    solver:
        The wave substrate (2D antiplane or 3D scalar).
    grid:
        Material parameter grid; the unknown ``m`` are its nodal moduli.
    receivers:
        Node indices of the observation points.
    data:
        Observed records ``(nsteps + 1, nrec)`` (same leapfrog lattice).
    dt, nsteps:
        Time discretization (fixed across the inversion).
    fault / source_params:
        Optional 2D fault dipole source (its ``mu`` coupling is part of
        the gradient).  ``extra_forcing(k)`` adds any fixed sources
        (already scaled by ``dt^2``).
    reg:
        Total-variation regularizer on ``m`` (optional).
    barrier_gamma / mu_min:
        Log-barrier ``-gamma sum log(m - mu_min)`` enforcing positivity.
    residual_smoother:
        Optional symmetric 1D kernel ``w`` applied to the residual time
        series: the misfit becomes ``(dt/2) |F r|^2`` with ``F`` the
        (zero-padded) convolution by ``w``.  Because ``w`` is symmetric,
        ``F^T = F`` and the adjoint forcing is ``F(F r)`` — gradients
        stay exact.  This implements the paper's *frequency
        continuation*: early inversion levels see only the low-passed
        residual (see :func:`gaussian_time_kernel`).
    """

    def __init__(
        self,
        solver: RegularGridScalarWave,
        grid: MaterialGrid,
        receivers: np.ndarray | None,
        data: np.ndarray | None,
        dt: float,
        nsteps: int,
        *,
        fault: FaultLineSource2D | None = None,
        source_params: SourceParams | None = None,
        extra_forcing: Callable[[int], np.ndarray] | None = None,
        shots: Sequence[Shot] | None = None,
        reg: TotalVariation | None = None,
        barrier_gamma: float = 0.0,
        mu_min: float = 0.0,
        residual_smoother: np.ndarray | None = None,
    ):
        self.solver = solver
        self.grid = grid
        self.P = grid.to_elements(solver)
        if shots is not None:
            if receivers is not None or data is not None:
                raise ValueError("pass either (receivers, data, ...) or shots")
            if fault is not None or source_params is not None or extra_forcing is not None:
                raise ValueError("per-shot sources live on the Shot objects")
            self.shots = [
                s if isinstance(s, Shot) else Shot(**s) for s in shots
            ]
            if not self.shots:
                raise ValueError("need at least one shot")
        else:
            self.shots = [
                Shot(
                    receivers=receivers,
                    data=data,
                    fault=fault,
                    source_params=source_params,
                    extra_forcing=extra_forcing,
                )
            ]
        self.B = len(self.shots)
        #: single-shot problems keep the exact serial sweep paths (and
        #: bitwise results) of the original implementation
        self._single = self.B == 1
        for s in self.shots:
            if s.data.shape != (nsteps + 1, len(s.receivers)):
                raise ValueError(
                    f"shot data must be (nsteps+1, nrec) = "
                    f"{(nsteps + 1, len(s.receivers))}, got {s.data.shape}"
                )
        shot0 = self.shots[0]
        # legacy single-shot attribute surface (joint/source inversion
        # and the checkpointed gradient read these)
        self.receivers = shot0.receivers if self._single else None
        self.data = shot0.data if self._single else None
        self.fault = shot0.fault if self._single else None
        self.source_params = shot0.source_params if self._single else None
        self.extra_forcing = shot0.extra_forcing if self._single else None
        self.dt = float(dt)
        self.nsteps = int(nsteps)
        self.reg = reg
        self.barrier_gamma = float(barrier_gamma)
        self.mu_min = float(mu_min)
        if residual_smoother is not None:
            w = np.asarray(residual_smoother, dtype=float)
            if len(w) % 2 == 0 or not np.allclose(w, w[::-1]):
                raise ValueError(
                    "residual_smoother must be an odd-length symmetric kernel"
                )
            self.residual_smoother = w
        else:
            self.residual_smoother = None
        #: counts of wave-equation solves (forward + adjoint), reported
        #: by the Table 3.1 benchmark
        self.n_wave_solves = 0

    @classmethod
    def multi_shot(
        cls,
        solver: RegularGridScalarWave,
        grid: MaterialGrid,
        shots: Sequence[Shot],
        dt: float,
        nsteps: int,
        **kwargs,
    ) -> "ScalarWaveInverseProblem":
        """Multi-shot constructor: the misfit sums over ``shots`` and
        every gradient / Gauss-Newton Hv evaluation runs exactly one
        batched forward and one batched adjoint march regardless of
        the shot count."""
        return cls(solver, grid, None, None, dt, nsteps, shots=shots, **kwargs)

    @property
    def n(self) -> int:
        return self.grid.n

    def mu_elements(self, m: np.ndarray) -> np.ndarray:
        return self.P @ m

    # ------------------------------------------------------------ forward

    def _shot_forcing(self, shot: Shot, mu_e: np.ndarray):
        parts = []
        if shot.fault is not None:
            if shot.source_params is None:
                raise ValueError("fault requires source_params")
            parts.append(shot.fault.forcing(mu_e, shot.source_params, self.dt))
        if shot.extra_forcing is not None:
            parts.append(shot.extra_forcing)
        if not parts:
            raise ValueError("no sources configured")
        if len(parts) == 1:
            return parts[0]

        def combined(k):
            out = None
            for p in parts:
                f = p(k)
                if f is None:
                    continue
                out = f if out is None else out + f
            return out

        return combined

    def _total_forcing(self, mu_e: np.ndarray):
        if not self._single:
            raise ValueError("multi-shot problems force per shot")
        return self._shot_forcing(self.shots[0], mu_e)

    def forward(self, m: np.ndarray) -> ForwardState:
        mu_e = self.mu_elements(m)
        if np.any(mu_e <= 0):
            raise FloatingPointError("non-positive modulus in forward model")
        with telemetry.span("inverse.forward") as _s:
            if self._single:
                u = self.solver.march(
                    mu_e, self._total_forcing(mu_e), self.nsteps, self.dt,
                    store=True,
                )
                self.n_wave_solves += 1
                residuals = [u[:, self.receivers] - self.data]
            else:
                # ONE batched march advances every shot's state column
                cols = [self._shot_forcing(s, mu_e) for s in self.shots]
                u = self.solver.march(
                    mu_e, batched_forcing(cols, self.solver.nnode),
                    self.nsteps, self.dt, store=True, batch=self.B,
                )
                self.n_wave_solves += 1
                residuals = [
                    u[:, s.receivers, i] - s.data
                    for i, s in enumerate(self.shots)
                ]
            _s.add("wave_solves", 1)
        # an unstable forward march propagates NaN garbage into the
        # misfit and every adjoint quantity; any non-finite value
        # reaches the final state, so one check here catches it
        check_finite(u[-1], step=self.nsteps, field="u")
        return ForwardState(m=np.asarray(m, float).copy(), mu_e=mu_e, u=u,
                            residuals=residuals)

    # ---------------------------------------------------------- objective

    def _smooth(self, r: np.ndarray) -> np.ndarray:
        """Apply the symmetric residual filter ``F`` along time."""
        if self.residual_smoother is None:
            return r
        from scipy.ndimage import convolve1d

        return convolve1d(r, self.residual_smoother, axis=0, mode="constant")

    def data_misfit(self, state: ForwardState) -> float:
        return 0.5 * self.dt * float(
            sum(np.sum(self._smooth(r) ** 2) for r in state.residuals)
        )

    def objective(self, m: np.ndarray, state: ForwardState | None = None):
        """Total objective and its parts; reuses ``state`` if given."""
        if state is None:
            state = self.forward(m)
        parts = {"data": self.data_misfit(state)}
        if self.reg is not None:
            parts["reg"] = self.reg.value(m)
        if self.barrier_gamma > 0:
            gap = m - self.mu_min
            if np.any(gap <= 0):
                return np.inf, parts, state
            parts["barrier"] = -self.barrier_gamma * float(np.sum(np.log(gap)))
        return sum(parts.values()), parts, state

    # ----------------------------------------------------------- adjoint

    def _adjoint_states(
        self, mu_e: np.ndarray, rhs_series: np.ndarray
    ) -> np.ndarray:
        """Solve the adjoint recurrence for nodal forcing series
        ``rhs_series`` of shape ``(nsteps+1, nrec)`` (receiver values);
        returns ``lam`` with ``lam[j]`` valid for ``j = 2 .. nsteps``.

        The adjoint is the same leapfrog with time reversed: with
        ``x^m := lam^{N+2-m}``, the recurrence and the dissipative sign
        of the absorbing boundary are unchanged (paper eq. 3.3).
        """
        N = self.nsteps
        # single reusable forcing buffer: only the receiver entries are
        # ever nonzero, so overwriting them each step keeps it correct
        fbuf = np.zeros(self.solver.nnode)

        def forcing(mrev: int):
            j = N + 1 - mrev
            fbuf[self.receivers] = -self.dt * rhs_series[j]
            return fbuf

        with telemetry.span("inverse.adjoint") as _s:
            x = self.solver.march(mu_e, forcing, N, self.dt, store=True)
            _s.add("wave_solves", 1)
        self.n_wave_solves += 1
        lam = np.zeros((N + 1, self.solver.nnode))
        lam[2 : N + 1] = x[2 : N + 1][::-1]
        return lam

    def _adjoint_states_multi(
        self, mu_e: np.ndarray, rhs_list: list[np.ndarray]
    ) -> np.ndarray:
        """Batched :meth:`_adjoint_states`: shot ``s``'s receiver
        residual series drives adjoint column ``s``, all columns in
        ONE reversed march.  Returns ``lam`` ``(N+1, nnode, B)``."""
        N = self.nsteps
        fbuf = np.zeros((self.solver.nnode, self.B))
        recs = [s.receivers for s in self.shots]

        def forcing(mrev: int):
            j = N + 1 - mrev
            for s, rs in enumerate(recs):
                fbuf[rs, s] = -self.dt * rhs_list[s][j]
            return fbuf

        with telemetry.span("inverse.adjoint") as _s:
            x = self.solver.march(
                mu_e, forcing, N, self.dt, store=True, batch=self.B
            )
            _s.add("wave_solves", 1)
        self.n_wave_solves += 1
        lam = np.zeros((N + 1, self.solver.nnode, self.B))
        lam[2 : N + 1] = x[2 : N + 1][::-1]
        return lam

    def _material_accumulation(
        self, mu_e: np.ndarray, u: np.ndarray, lam: np.ndarray
    ) -> np.ndarray:
        """``g_e = sum_k lam^{k+1,T} [dt^2 K_e u^k + (dt/2) C_e (u^{k+1}
        - u^{k-1}) - dt^2 db^k/dmu_e]`` — shared by gradient and GN Hv.

        The stiffness term runs over the whole history on the kernel's
        row blocks; the boundary and fault terms touch few nodes and
        are vectorized over time in chunks.  Multi-shot fields ``(nt,
        nnode, B)`` contract over time *and* shots; the per-shot fault
        coupling slices its own column."""
        N = self.nsteps
        dt = self.dt
        g = dt**2 * self.solver.K_material_gradient_batch(
            u[1:N], lam[2 : N + 1]
        )
        chunk = 128
        multi = u.ndim == 3
        for k0 in range(1, N, chunk):
            k1 = min(k0 + chunk, N)
            L = lam[k0 + 1 : k1 + 1]
            g += 0.5 * dt * self.solver.C_material_gradient_batch(
                u[k0 + 1 : k1 + 1] - u[k0 - 1 : k1 - 1], L, mu_e
            )
            for s, shot in enumerate(self.shots):
                if shot.fault is None or shot.source_params is None:
                    continue
                Ls = L[:, :, s] if multi else L
                g -= dt**2 * shot.fault.material_gradient_batch(
                    Ls, shot.source_params, np.arange(k0, k1) * dt
                )
        return g

    def gradient(self, m: np.ndarray, state: ForwardState | None = None):
        """Exact discrete gradient; returns ``(g, J, state)``.

        Multi-shot: the residual columns of every shot drive ONE
        batched adjoint march (on top of the one batched forward march
        in :meth:`forward`), so the wave-solve count per gradient is 2
        regardless of the shot count."""
        if state is None:
            state = self.forward(m)
        J, _, _ = self.objective(m, state)
        # adjoint forcing: F^T F r (= F F r for the symmetric smoother)
        if self._single:
            lam = self._adjoint_states(
                state.mu_e, self._smooth(self._smooth(state.residual))
            )
        else:
            lam = self._adjoint_states_multi(
                state.mu_e,
                [self._smooth(self._smooth(r)) for r in state.residuals],
            )
        g_e = self._material_accumulation(state.mu_e, state.u, lam)
        g = self.P.T @ g_e
        if self.reg is not None:
            g = g + self.reg.gradient(m)
        if self.barrier_gamma > 0:
            g = g - self.barrier_gamma / (m - self.mu_min)
        return g, J, state

    def gradient_checkpointed(
        self, m: np.ndarray, slots: int = 8
    ) -> tuple[np.ndarray, float]:
        """Memory-bounded gradient via Griewank checkpointing [21].

        Instead of storing all ``nsteps + 1`` forward states, the
        forward sweep keeps ``slots`` two-state snapshots and the
        receiver traces; during the backward (adjoint) sweep the needed
        forward states are replayed segment by segment.  Peak state
        memory drops from ``O(N)`` to ``O(N / slots + slots)`` at the
        price of one extra forward recomputation.

        Returns ``(g, J)``; the result matches :meth:`gradient` to
        roundoff (tested).
        """
        from repro.solver.checkpoint import (
            CheckpointedStates,
            checkpoint_schedule,
        )

        if not self._single:
            raise NotImplementedError(
                "checkpointed gradients are single-shot only; multi-shot "
                "gradients already run one batched sweep each way"
            )
        mu_e = self.mu_elements(m)
        if np.any(mu_e <= 0):
            raise FloatingPointError("non-positive modulus in forward model")
        N = self.nsteps
        dt = self.dt
        solver = self.solver
        forcing = self._total_forcing(mu_e)

        # forward sweep: snapshots + receiver traces only
        sched = set(checkpoint_schedule(N, slots))
        snaps: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        traces = np.zeros((N + 1, len(self.receivers)))
        last: dict = {}

        def on_step(k, x):
            traces[k] = x[self.receivers]
            if k - 1 in sched:
                snaps[k - 1] = (last["x"], x.copy())
            last["x"] = x.copy()

        solver.march(mu_e, forcing, N, dt, store=False, on_step=on_step)
        self.n_wave_solves += 1
        residual = traces - self.data
        J = 0.5 * dt * float(np.sum(self._smooth(residual) ** 2))
        residual_adj = self._smooth(self._smooth(residual))
        if self.reg is not None:
            J += self.reg.value(m)
        if self.barrier_gamma > 0:
            J += -self.barrier_gamma * float(
                np.sum(np.log(m - self.mu_min))
            )

        # replay machinery for the forward states
        C = solver.damping_diag(mu_e)
        a_plus = solver.m + 0.5 * dt * C
        a_minus = solver.m - 0.5 * dt * C
        K = solver.bind_K(mu_e)

        def step_fn(k, x_prev, x):
            f = forcing(k)
            r = 2 * solver.m * x - dt**2 * solver.apply_K_bound(K, x)
            r -= a_minus * x_prev
            if f is not None:
                r = r + f
            return r / a_plus

        states = CheckpointedStates(step_fn, snaps, N)

        # adjoint sweep with on-the-fly accumulation: reversed step mrev
        # carries lam^{N+2-mrev}; the material terms for k = N+1-mrev
        # need u^{k-1}, u^k, u^{k+1}
        g_e = np.zeros(solver.nelem)
        adj_fbuf = np.zeros(solver.nnode)

        def adj_forcing(mrev):
            j = N + 1 - mrev
            adj_fbuf[self.receivers] = -dt * residual_adj[j]
            return adj_fbuf

        def adj_on_step(mrev, x):
            j = N + 2 - mrev  # lam index
            k = j - 1
            if not (1 <= k <= N - 1) or not x.any():
                return
            # descending access order keeps the replay cache warm
            up = states.state(k + 1)
            uk = states.state(k)
            um = states.state(k - 1)
            g_e[:] += dt**2 * solver.K_material_gradient(uk, x)
            g_e[:] += 0.5 * dt * solver.C_material_gradient(up - um, x, mu_e)
            if self.fault is not None and self.source_params is not None:
                proj = self.fault.lam_projection(x)
                g_e[:] -= dt**2 * self.fault.material_gradient_term(
                    proj, self.source_params, k * dt
                )

        solver.march(
            mu_e, adj_forcing, N, dt, store=False, on_step=adj_on_step
        )
        self.n_wave_solves += 1
        g = self.P.T @ g_e
        if self.reg is not None:
            g = g + self.reg.gradient(m)
        if self.barrier_gamma > 0:
            g = g - self.barrier_gamma / (m - self.mu_min)
        return g, J

    # ----------------------------------------------- Gauss-Newton Hessian

    def _incremental_forcing(
        self, state: ForwardState, dmu_e: np.ndarray
    ) -> np.ndarray:
        """The whole forcing of the incremental forward as one table:
        ``F[k-1] = -(dt/2) C_delta (u^{k+1} - u^{k-1}) - dt^2 K(dmu) u^k
        + dt^2 (db^k/dmu) dmu`` for ``k = 1 .. N-1``, shaped like
        ``state.u[1:N]``.  ``K(dmu)`` is bound once and applied to the
        stored history in one time-batched pass, so the march that
        consumes the table never alternates materials through the
        kernel."""
        u = state.u
        dt = self.dt
        N = self.nsteps
        solver = self.solver
        K_delta = solver.bind_K(dmu_e)
        F = np.empty(u[1:N].shape)
        if self._single:
            solver.apply_K_rows(K_delta, u[1:N], F)
        else:
            for k in range(1, N):
                solver.apply_K_bound(K_delta, u[k], F[k - 1])
        F *= dt**2
        C_delta = solver.damping_diag_perturbation(state.mu_e, dmu_e)
        c = -0.5 * dt * C_delta
        D = u[2 : N + 1] - u[0 : N - 1]
        D *= c if self._single else c[:, None]
        np.subtract(D, F, out=F)
        ks = np.arange(1, N)
        for s, shot in enumerate(self.shots):
            if shot.fault is None:
                continue
            col = F if self._single else F[:, :, s]
            # b is linear in mu: (db/dmu) dmu = b(dmu)
            col[:, shot.fault.unodes] += shot.fault.forcing_rows(
                dmu_e, shot.source_params, ks, dt
            )
        return F

    def gn_hessvec(self, v: np.ndarray, state: ForwardState) -> np.ndarray:
        """Gauss-Newton Hessian action ``H v`` at ``state.m``.

        One incremental forward plus one incremental adjoint solve —
        batched over all shots for multi-shot problems (wave-solve
        count 2 per call regardless of the shot count).
        """
        mu_e = state.mu_e
        dmu_e = self.P @ v
        N = self.nsteps
        F = self._incremental_forcing(state, dmu_e)
        with telemetry.span("inverse.gn_hessvec") as _s:
            du = self.solver.march(
                mu_e, lambda k: F[k - 1], N, self.dt, store=True,
                batch=None if self._single else self.B,
            )
            _s.add("wave_solves", 1)
        self.n_wave_solves += 1
        if self._single:
            lam_t = self._adjoint_states(
                mu_e, self._smooth(self._smooth(du[:, self.receivers]))
            )
        else:
            lam_t = self._adjoint_states_multi(
                mu_e,
                [
                    self._smooth(self._smooth(du[:, s.receivers, i]))
                    for i, s in enumerate(self.shots)
                ],
            )
        h_e = self._material_accumulation(mu_e, state.u, lam_t)
        Hv = self.P.T @ h_e
        if self.reg is not None:
            Hv = Hv + self.reg.hessvec(state.m, v)
        if self.barrier_gamma > 0:
            Hv = Hv + self.barrier_gamma * v / (state.m - self.mu_min) ** 2
        return Hv
