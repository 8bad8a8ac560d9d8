"""The least-squares inverse problem, written once; the scalar material
inversion on top of it.

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

Material, source and attenuation inversion differ only in which
parameters enter that recurrence, so :class:`LeastSquaresProblem` owns
the recipe — forward sweep and residuals, misfit, penalties and
log-barrier, the reversed adjoint march, gradient and Gauss-Newton
``H v`` — and each physics supplies five hooks (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    data: np.ndarray  # (nsteps + 1, nrec[, 3])
    fault: FaultLineSource2D | None = None
    source_params: SourceParams | None = None
    extra_forcing: Callable[[int], np.ndarray] | None = None

    def __post_init__(self):
        self.receivers = np.asarray(self.receivers, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=float)


@dataclass
class ForwardState:
    """One forward sweep, reused by the gradient and every Hessian-
    vector product at its iterate."""

    m: np.ndarray
    model: object  # what the physics' ``march`` runs on
    u: np.ndarray | None  # (nsteps+1, nnode[, 3][, B]); None if not stored
    residuals: list  # (nsteps+1, nrec[, 3]) per shot

    @property
    def residual(self) -> np.ndarray:
        """The single-shot residual (errors on multi-shot states, where
        no one residual is canonical — use ``residuals``)."""
        if len(self.residuals) != 1:
            raise ValueError("multi-shot state: use .residuals")
        return self.residuals[0]


class LeastSquaresProblem:
    """``J(m) = (dt/2) sum_shots |F (u_r(m) - d)|^2 + penalties - barrier``
    with its exact discrete gradient and Gauss-Newton ``H v``, for any
    physics that supplies the hooks

    * ``model(m)`` — parameters to the model the march runs on; raises
      ``FloatingPointError`` where the model is not physical;
    * ``sources(model)`` — the forward sweep's ``forcing(k)``;
    * ``march(model, forcing)`` — the stored leapfrog history
      ``(nsteps + 1, nnode, *comp, *tail)`` driven by ``forcing(k)``
      (``dt^2``-scaled, as every forcing here is);
    * ``accumulate(state, L)`` — the parameter equation: the gradient
      contribution of an adjoint history against ``state.u``, handed
      over as ``L[k - 1] = lam^{k+1}`` for ``k = 1 .. nsteps - 1``
      (shaped like ``state.u[1:nsteps]``, a reversed view of the
      adjoint march);
    * ``incremental_forcing(state, v)`` — the Gauss-Newton incremental
      forward's forcing as a table ``F[k - 1]``, shaped like
      ``state.u[1:nsteps]``;

    and, when it regularizes, ``penalties()`` — blocks ``(rows, reg)``,
    each ``reg`` with ``value(p)``, ``gradient(p)`` and ``hessvec(p,
    v)`` of ``p = m[rows]``.

    Shots are a trailing axis: ``tail = ()`` for one shot and ``(B,)``
    for ``B``, so a one-shot problem runs the solo march and shot ``b``
    is column ``b`` of every state.  The log-barrier ``-gamma sum
    log(m[barrier_rows] - mu_min)`` keeps the rows it covers positive;
    :func:`~repro.inverse.gauss_newton_cg` keeps its iterates inside the
    same rows.
    """

    def __init__(
        self,
        shots: Sequence[Shot],
        dt: float,
        nsteps: int,
        *,
        barrier_gamma: float = 0.0,
        mu_min: float = 0.0,
        residual_smoother: np.ndarray | None = None,
    ):
        self.shots = list(shots)
        if not self.shots:
            raise ValueError("need at least one shot")
        for s in self.shots:
            if s.data.shape[:2] != (nsteps + 1, len(s.receivers)):
                raise ValueError(
                    f"shot data must be (nsteps+1, nrec) = "
                    f"{(nsteps + 1, len(s.receivers))}, got {s.data.shape}"
                )
        self.tail = () if len(self.shots) == 1 else (len(self.shots),)
        self.dt = float(dt)
        self.nsteps = int(nsteps)
        self.barrier_gamma = float(barrier_gamma)
        self.mu_min = float(mu_min)
        self.barrier_rows = slice(None)
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

    def penalties(self) -> list:
        return []

    def _column(self, a: np.ndarray, b: int) -> np.ndarray:
        """Shot ``b``'s view of a state-shaped block."""
        return a[..., b] if self.tail else a

    def _traces(self, u: np.ndarray) -> list:
        """Each shot's receiver records of a history ``u``."""
        return [
            self._column(u, b)[:, s.receivers]
            for b, s in enumerate(self.shots)
        ]

    def _solve(self, model, forcing, span: str) -> np.ndarray:
        with telemetry.span(span) as _s:
            u = self.march(model, forcing)
            _s.add("wave_solves", 1)
        self.n_wave_solves += 1
        return u

    # ------------------------------------------------------------ forward

    def forward(self, m: np.ndarray) -> ForwardState:
        model = self.model(m)
        u = self._solve(model, self.sources(model), "inverse.forward")
        # an unstable forward march propagates NaN garbage into the
        # misfit and every adjoint quantity; any non-finite value
        # reaches the final state, so one check here catches it
        check_finite(u[-1], step=self.nsteps, field="u")
        residuals = [t - s.data for t, s in zip(self._traces(u), self.shots)]
        return ForwardState(np.asarray(m, float).copy(), model, u, residuals)

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
        blocks = self.penalties()
        if blocks:
            parts["reg"] = sum(reg.value(m[rows]) for rows, reg in blocks)
        if self.barrier_gamma > 0:
            gap = m[self.barrier_rows] - self.mu_min
            if np.any(gap <= 0):
                return np.inf, parts, state
            parts["barrier"] = -self.barrier_gamma * float(np.sum(np.log(gap)))
        return sum(parts.values()), parts, state

    # ----------------------------------------------------------- adjoint

    def _receiver_forcing(self, shape: tuple, traces: list):
        """Reversed-time forcing of the adjoint march: step ``mrev``
        carries ``-dt F^T F traces`` at index ``N + 1 - mrev`` on each
        shot's receivers (``F^T F = F F`` for the symmetric smoother),
        shot ``b`` in column ``b``.  One buffer serves every step: only
        receiver entries are ever nonzero, and they are overwritten."""
        N = self.nsteps
        rhs = [self._smooth(self._smooth(t)) for t in traces]
        fbuf = np.zeros(shape)

        def forcing(mrev: int):
            j = N + 1 - mrev
            for b, (s, r) in enumerate(zip(self.shots, rhs)):
                self._column(fbuf, b)[s.receivers] = -self.dt * r[j]
            return fbuf

        return forcing

    def _adjoint(self, state: ForwardState, traces: list) -> np.ndarray:
        """Adjoint history ``L`` driven by per-shot receiver ``traces``:
        ``L[k - 1] = lam^{k+1}`` for ``k = 1 .. nsteps - 1``.

        The adjoint is the same leapfrog with time reversed: with
        ``x^m := lam^{N+2-m}``, the recurrence and the dissipative sign
        of the absorbing boundary are unchanged (paper eq. 3.3) — so
        ``L`` is the reversed view ``x[N:1:-1]`` of the march, no copy.
        """
        x = self._solve(
            state.model, self._receiver_forcing(state.u.shape[1:], traces),
            "inverse.adjoint",
        )
        return x[self.nsteps : 1 : -1]

    def _add_penalty_gradient(self, m: np.ndarray, g: np.ndarray) -> np.ndarray:
        for rows, reg in self.penalties():
            g[rows] += reg.gradient(m[rows])
        if self.barrier_gamma > 0:
            rows = self.barrier_rows
            g[rows] -= self.barrier_gamma / (m[rows] - self.mu_min)
        return g

    def gradient(self, m: np.ndarray, state: ForwardState | None = None):
        """Exact discrete gradient; returns ``(g, J, state)``.

        Every shot's residual drives its own column of ONE adjoint
        march (on top of the one forward march in :meth:`forward`), so
        the wave-solve count per gradient is 2 regardless of the shot
        count."""
        if state is None:
            state = self.forward(m)
        J, _, _ = self.objective(m, state)
        g = self.accumulate(state, self._adjoint(state, state.residuals))
        return self._add_penalty_gradient(m, g), J, state

    # ----------------------------------------------- Gauss-Newton Hessian

    def gn_hessvec(self, v: np.ndarray, state: ForwardState) -> np.ndarray:
        """Gauss-Newton Hessian action ``H v`` at ``state.m``: one
        incremental forward plus one incremental adjoint solve, every
        shot in its column of each."""
        F = self.incremental_forcing(state, v)
        du = self._solve(state.model, lambda k: F[k - 1], "inverse.gn_hessvec")
        Hv = self.accumulate(state, self._adjoint(state, self._traces(du)))
        m = state.m
        for rows, reg in self.penalties():
            Hv[rows] += reg.hessvec(m[rows], v[rows])
        if self.barrier_gamma > 0:
            rows = self.barrier_rows
            gap = m[rows] - self.mu_min
            Hv[rows] += self.barrier_gamma * v[rows] / gap**2
        return Hv


class ScalarWaveInverseProblem(LeastSquaresProblem):
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
        if shots is not None:
            if receivers is not None or data is not None:
                raise ValueError("pass either (receivers, data, ...) or shots")
            if fault is not None or source_params is not None or extra_forcing is not None:
                raise ValueError("per-shot sources live on the Shot objects")
            shots = [s if isinstance(s, Shot) else Shot(**s) for s in shots]
        else:
            shots = [
                Shot(
                    receivers=receivers,
                    data=data,
                    fault=fault,
                    source_params=source_params,
                    extra_forcing=extra_forcing,
                )
            ]
        super().__init__(
            shots, dt, nsteps, barrier_gamma=barrier_gamma, mu_min=mu_min,
            residual_smoother=residual_smoother,
        )
        self.solver = solver
        self.grid = grid
        self.P = grid.to_elements(solver)
        self.reg = reg

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

    def penalties(self) -> list:
        return [] if self.reg is None else [(slice(None), self.reg)]

    # -------------------------------------------------------------- hooks

    def model(self, m: np.ndarray) -> np.ndarray:
        mu_e = self.P @ m
        if np.any(mu_e <= 0):
            raise FloatingPointError("non-positive modulus in forward model")
        return mu_e

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

    def sources(self, mu_e: np.ndarray):
        cols = [self._shot_forcing(s, mu_e) for s in self.shots]
        return batched_forcing(cols, self.solver.nnode) if self.tail else cols[0]

    def march(self, mu_e: np.ndarray, forcing) -> np.ndarray:
        return self.solver.march(
            mu_e, forcing, self.nsteps, self.dt, store=True,
            batch=self.tail[0] if self.tail else None,
        )

    def accumulate(
        self, state: ForwardState, L: np.ndarray, *, _step0: int = 0
    ) -> np.ndarray:
        """``g_e = sum_k lam^{k+1,T} [dt^2 K_e u^k + (dt/2) C_e (u^{k+1}
        - u^{k-1}) - dt^2 db^k/dmu_e]``, returned on the grid as ``P^T
        g_e``, over the ``len(L) + 1`` rows of ``state.u``; ``u[0]`` is
        step ``_step0`` of the march (a checkpointed segment's start),
        which only the fault term's source times read.

        The stiffness term is one stencil correlation over the whole
        history; the boundary terms read the damped nodes only and the
        fault terms their own few nodes, vectorized over time in
        chunks.  Multi-shot fields ``(nt, nnode, B)`` contract over
        time *and* shots; the per-shot fault coupling slices its own
        column."""
        N = len(L) + 1
        dt = self.dt
        solver = self.solver
        u, mu_e = state.u, state.model
        g = dt**2 * solver.K_material_gradient_batch(u[1:N], L)
        ub = u[:, solver.damped_nodes]
        Lb = L[:, solver.damped_nodes]
        chunk = 128
        for k0 in range(1, N, chunk):
            k1 = min(k0 + chunk, N)
            g += 0.5 * dt * solver.C_material_gradient_batch(
                ub[k0 + 1 : k1 + 1] - ub[k0 - 1 : k1 - 1],
                Lb[k0 - 1 : k1 - 1], mu_e,
            )
            for s, shot in enumerate(self.shots):
                if shot.fault is None or shot.source_params is None:
                    continue
                g -= dt**2 * shot.fault.material_gradient_batch(
                    self._column(L[k0 - 1 : k1 - 1], s), shot.source_params,
                    np.arange(_step0 + k0, _step0 + k1) * dt,
                )
        return self.P.T @ g

    def incremental_forcing(self, state: ForwardState, v: np.ndarray) -> np.ndarray:
        """``F[k-1] = -(dt/2) C_delta (u^{k+1} - u^{k-1}) - dt^2 K(dmu)
        u^k + dt^2 (db^k/dmu) dmu`` for ``k = 1 .. N-1``, ``dmu = P v``.
        ``K(dmu)`` is assembled once and applied to every row of the
        stored history before the march that consumes the table starts;
        the damping term is nonzero on the damped nodes only."""
        u = state.u
        dt = self.dt
        N = self.nsteps
        solver = self.solver
        dmu_e = self.P @ v
        F = solver.apply_K_rows(
            solver.bind_K(dmu_e), u[1:N], np.empty(u[1:N].shape)
        )
        F *= -(dt**2)
        bn = solver.damped_nodes
        c = -0.5 * dt * solver.damping_diag_perturbation(state.model, dmu_e)
        D = u[2 : N + 1, bn] - u[0 : N - 1, bn]
        D *= c[bn, None] if self.tail else c[bn]
        F[:, bn] += D
        ks = np.arange(1, N)
        for s, shot in enumerate(self.shots):
            if shot.fault is None:
                continue
            # b is linear in mu: (db/dmu) dmu = b(dmu)
            self._column(F, s)[:, shot.fault.unodes] += shot.fault.forcing_rows(
                dmu_e, shot.source_params, ks, dt
            )
        return F

    # ----------------------------------------------- bounded-memory sweep

    def gradient_checkpointed(
        self, m: np.ndarray, slots: int = 8
    ) -> tuple[np.ndarray, float]:
        """Memory-bounded gradient via checkpointing [21]; returns
        ``(g, J)``.

        The forward sweep keeps every shot's receiver rows and only the
        restart pairs ``(u^s, u^{s+1})`` at ``s = 0, stride, 2 stride,
        ...`` (``stride = ceil((N - 1) / slots)``: at most ``slots``
        pairs).  The backward sweep takes the segments last first: it
        continues the adjoint march from its own pair up to ``x^{N-s}``,
        replays the forward segment from its pair, and adds
        :meth:`accumulate` over the segment's steps ``k = s+1 .. next
        start``.  Every sweep is a segment of the one :meth:`march`,
        which restarts bit for bit from a pair, so ``slots=1`` gives
        :meth:`gradient`'s ``g`` bit for bit; more segments only regroup
        the sum.  Peak state memory drops from ``N + 1`` rows to about
        ``2 (stride + 2 + slots)``, for one more forward march.
        """
        if slots < 1:
            raise ValueError(f"need slots >= 1, got {slots}")
        mu_e = self.model(m)
        N = self.nsteps
        stride = max(1, -(-(N - 1) // slots))
        starts = list(range(0, max(N - 1, 1), stride))
        lasts = starts[1:] + [N - 1]  # each segment's last step k
        rest = np.zeros((2, self.solver.nnode, *self.tail))

        def segment(forcing, s, n, pair):
            """Rows ``s .. s + n`` of the march driven by ``forcing``,
            restarted from its rows ``pair = (s, s + 1)``."""
            return self.solver.march(
                mu_e, lambda k: forcing(k + s), n, self.dt, store=True,
                x0=pair[0], x1=pair[1],
                batch=self.tail[0] if self.tail else None,
            )

        forcing = self.sources(mu_e)
        pairs = [rest]
        traces = [np.empty(shot.data.shape) for shot in self.shots]
        for s, t in zip(starts, lasts):
            u = segment(forcing, s, t + 1 - s, pairs[-1])
            for tr, r in zip(traces, self._traces(u)):
                tr[s : t + 2] = r
            pairs.append(u[-2:].copy())
        check_finite(pairs.pop()[1], step=N, field="u")
        residuals = [tr - shot.data for tr, shot in zip(traces, self.shots)]
        J = self.objective(m, ForwardState(m, mu_e, None, residuals))[0]

        # x^{N+1-k} = lam^{k+1} for the segment's k: adjoint rows
        # N - t - 1 .. N - s, read back from the end down to row 2
        adjoint = self._receiver_forcing(rest.shape[1:], residuals)
        g = np.zeros(self.n)
        x_pair = rest
        for s, t, pair in zip(starts[::-1], lasts[::-1], pairs[::-1]):
            x = segment(adjoint, N - t - 1, t + 1 - s, x_pair)
            x_pair = x[-2:].copy()
            u = segment(forcing, s, t + 1 - s, pair)
            g += self.accumulate(
                ForwardState(m, mu_e, u, residuals), x[:1:-1], _step0=s
            )
            del x, u  # one segment of each sweep is alive at a time
        self.n_wave_solves += 2
        return self._add_penalty_gradient(m, g), J
