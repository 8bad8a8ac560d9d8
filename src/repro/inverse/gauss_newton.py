"""Gauss-Newton-CG with Armijo backtracking (paper Section 3.1).

At every Newton iteration the Gauss-Newton system ``H dm = -g`` is
solved by preconditioned CG (each CG iteration = one forward + one
adjoint wave solve); an Armijo backtracking line search assures global
convergence, and a fraction-to-boundary rule keeps the iterates inside
the log-barrier domain.  Iteration counts are recorded — they are the
payload of Table 3.1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.inverse.precond import LBFGSPreconditioner
from repro.resilience import NumericalHealthError
from repro.solver.checkpoint import CheckpointManager

from repro import telemetry


@dataclass
class GNResult:
    """Outcome and accounting of a Gauss-Newton-CG run."""

    m: np.ndarray
    objective: float
    newton_iterations: int
    total_cg_iterations: int
    converged: bool
    history: list = field(default_factory=list)

    @property
    def avg_cg_per_newton(self) -> float:
        return self.total_cg_iterations / max(self.newton_iterations, 1)


def _pcg(
    hessvec: Callable[[np.ndarray], np.ndarray],
    g: np.ndarray,
    *,
    tol: float,
    maxiter: int,
    precond: LBFGSPreconditioner | None,
) -> tuple[np.ndarray, int]:
    """Preconditioned CG on ``H d = -g``; truncates on negative
    curvature (returns the best descent direction found)."""
    n = len(g)
    d = np.zeros(n)
    r = -g.copy()
    z = precond.apply(r) if precond is not None else r.copy()
    p = z.copy()
    rz = float(r @ z)
    r0 = np.linalg.norm(r)
    iters = 0
    for _ in range(maxiter):
        with telemetry.span("gn.cg_iter"):
            Hp = hessvec(p)
        iters += 1
        telemetry.sample("gn.cg_residual", float(np.linalg.norm(r)))
        pHp = float(p @ Hp)
        # divergence safeguard: a NaN/Inf Hessian product (unstable
        # incremental solve) would silently poison every later iterate;
        # fall back to the best direction so far (or preconditioned
        # steepest descent) and let the line search save the step
        if not np.isfinite(pHp) or not np.all(np.isfinite(Hp)):
            telemetry.count("resilience.gn_divergence")
            if not d.any():
                d = z
            break
        if precond is not None:
            precond.stage_pair(p, Hp)
        # scale-invariant curvature guard: compare against |p||Hp|, not
        # |p|^2 (the Hessian's units are J / parameter^2 and can be many
        # orders of magnitude away from 1)
        if pHp <= 1e-14 * np.linalg.norm(p) * np.linalg.norm(Hp):
            if not d.any():
                d = z  # steepest (preconditioned) descent fallback
            break
        alpha = rz / pHp
        d = d + alpha * p
        r = r - alpha * Hp
        if np.linalg.norm(r) <= tol * r0:
            break
        z = precond.apply(r) if precond is not None else r
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    if not d.any():
        d = -g
    return d, iters


def gauss_newton_cg(
    problem,
    m0: np.ndarray,
    *,
    max_newton: int = 30,
    gtol: float = 1e-6,
    cg_maxiter: int = 60,
    cg_forcing: float = 0.5,
    armijo_c: float = 1e-4,
    armijo_shrink: float = 0.5,
    armijo_max_backtracks: int = 20,
    precond: LBFGSPreconditioner | None = None,
    bounds_fraction: float = 0.995,
    callback: Callable | None = None,
    verbose: bool = False,
    checkpoint: CheckpointManager | None = None,
    resume: bool = False,
) -> GNResult:
    """Minimize ``problem.objective`` over the material parameters.

    ``problem`` must provide ``gradient(m) -> (g, J, state)``,
    ``gn_hessvec(v, state)``, ``objective(m)``, and the attributes
    ``barrier_gamma`` / ``mu_min`` and, when ``barrier_gamma > 0``,
    ``barrier_rows`` (for the fraction-to-boundary rule) — a
    :class:`~repro.inverse.problem.LeastSquaresProblem` does.

    The CG tolerance follows an Eisenstat-Walker-style forcing term
    ``min(cg_forcing, sqrt(|g|/|g0|))`` for superlinear convergence.

    With ``checkpoint`` set, every accepted Newton iteration is durably
    snapshotted (the iterate, the committed L-BFGS curvature pairs, and
    the run accounting); ``resume=True`` restarts from the latest valid
    snapshot.  The resumed run recomputes the gradient at the restored
    iterate — ``problem.forward`` is deterministic, so the continuation
    is bit-identical to the uninterrupted run.
    """
    m = np.asarray(m0, dtype=float).copy()
    it0 = 0
    ck = checkpoint.latest() if (resume and checkpoint is not None) else None
    if ck is not None:
        m = ck.arrays["m"].copy()
        it0 = int(ck.meta["next_it"])
        total_cg = int(ck.meta["total_cg"])
        g0_norm = float(ck.meta["g0_norm"])
        history = list(ck.meta["history"])
        if precond is not None and "precond_s" in ck.arrays:
            precond.pairs = deque(
                (
                    (
                        ck.arrays["precond_s"][i],
                        ck.arrays["precond_y"][i],
                        float(ck.arrays["precond_sy"][i]),
                    )
                    for i in range(len(ck.arrays["precond_sy"]))
                ),
                maxlen=precond.memory,
            )
        with telemetry.span("gn.gradient"):
            g, J, state = problem.gradient(m)
    else:
        with telemetry.span("gn.gradient"):
            g, J, state = problem.gradient(m)
        g0_norm = np.linalg.norm(g)
        total_cg = 0
        history = [{"J": J, "gnorm": float(g0_norm)}]
        telemetry.sample("gn.J", J, step=0)
        telemetry.sample("gn.gnorm", float(g0_norm), step=0)
    converged = False

    for it in range(it0, max_newton):
        gnorm = np.linalg.norm(g)
        if gnorm <= gtol * max(g0_norm, 1e-30):
            converged = True
            break
        eta = min(cg_forcing, np.sqrt(gnorm / max(g0_norm, 1e-30)))
        with telemetry.span("gn.cg_solve") as _cg:
            d, cg_iters = _pcg(
                lambda v: problem.gn_hessvec(v, state),
                g,
                tol=eta,
                maxiter=cg_maxiter,
                precond=precond,
            )
            _cg.add("cg_iters", cg_iters)
        total_cg += cg_iters
        telemetry.sample("gn.cg_iters", cg_iters, step=it)
        if precond is not None:
            precond.commit()

        # fraction-to-boundary: stay strictly inside the barrier domain
        # (only for the components the problem's barrier actually covers)
        step = 1.0
        if problem.barrier_gamma > 0:
            rows = problem.barrier_rows
            gap = m[rows] - problem.mu_min
            dm = d[rows]
            neg = dm < 0
            if np.any(neg):
                limit = np.min(-bounds_fraction * gap[neg] / dm[neg])
                step = min(step, float(limit))

        gTd = float(g @ d)
        if gTd >= 0:  # not a descent direction; fall back
            d = -g
            gTd = -gnorm**2
        accepted = False
        with telemetry.span("gn.line_search"):
            for _ in range(armijo_max_backtracks):
                m_try = m + step * d
                try:
                    J_try, _, state_try = problem.objective(m_try)
                except NumericalHealthError:
                    # trial iterate sent the forward model unstable —
                    # treat like a non-finite objective and backtrack
                    J_try = np.inf
                if np.isfinite(J_try) and J_try <= J + armijo_c * step * gTd:
                    accepted = True
                    break
                step *= armijo_shrink
        if not accepted:
            break
        m = m_try
        with telemetry.span("gn.gradient"):
            g, J, state = problem.gradient(m, state_try)
        history.append(
            {"J": J, "gnorm": float(np.linalg.norm(g)), "cg": cg_iters,
             "step": float(step)}
        )
        if checkpoint is not None:
            # every accepted Newton iteration is a restart point (outer
            # iterations are expensive; the files are small)
            arrays = {"m": m}
            if precond is not None and len(precond.pairs):
                arrays["precond_s"] = np.stack(
                    [s for s, _, _ in precond.pairs]
                )
                arrays["precond_y"] = np.stack(
                    [y for _, y, _ in precond.pairs]
                )
                arrays["precond_sy"] = np.array(
                    [sy for _, _, sy in precond.pairs]
                )
            checkpoint.save(
                it,
                arrays,
                {
                    "next_it": it + 1,
                    "total_cg": total_cg,
                    "g0_norm": float(g0_norm),
                    "J": float(J),
                    "history": history,
                },
            )
        telemetry.sample("gn.J", J, step=it + 1)
        telemetry.sample("gn.gnorm", history[-1]["gnorm"], step=it + 1)
        if verbose:
            print(
                f"GN {it + 1:3d}: J={J:.6e} |g|={history[-1]['gnorm']:.3e} "
                f"cg={cg_iters} step={step:.3f}"
            )
        if callback is not None:
            callback(it, m, J)

    return GNResult(
        m=m,
        objective=J,
        newton_iterations=len(history) - 1,
        total_cg_iterations=total_cg,
        converged=converged,
        history=history,
    )
