"""Joint source + material inversion ("blind deconvolution").

The paper closes Section 3.2 noting that when both the source and the
material are unknown the problem "is even more challenging".  We
implement the natural block-coordinate (alternating) scheme the
formulation suggests: repeatedly solve the material subproblem with the
current source estimate frozen, then the source subproblem with the
current material frozen, each by the same Gauss-Newton-CG machinery.
The data misfit is monotonically non-increasing across half-steps
because each subproblem starts from the current iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.inverse.fault_source import FaultLineSource2D, SourceParams
from repro.inverse.gauss_newton import gauss_newton_cg
from repro.inverse.parametrization import MaterialGrid
from repro.inverse.problem import ScalarWaveInverseProblem
from repro.inverse.source_inversion import SourceInverseProblem
from repro.solver.scalarwave import RegularGridScalarWave


@dataclass
class JointResult:
    m: np.ndarray
    p: SourceParams
    history: list = field(default_factory=list)


def joint_invert(
    solver: RegularGridScalarWave,
    grid: MaterialGrid,
    fault: FaultLineSource2D,
    receivers: np.ndarray,
    data: np.ndarray,
    dt: float,
    nsteps: int,
    m0: np.ndarray,
    p0: SourceParams,
    *,
    outer_iterations: int = 4,
    newton_per_block: int = 5,
    cg_maxiter: int = 25,
    beta_tv: float = 0.0,
    beta_source: float = 1e-6,
    barrier_gamma: float = 1e-8,
    verbose: bool = False,
) -> JointResult:
    """Alternating material/source inversion from records alone.

    Each outer iteration runs ``newton_per_block`` Gauss-Newton steps on
    the material with the source frozen, then on the source with the
    material frozen.  Returns the final estimates and the per-half-step
    data-misfit history.
    """
    from repro.inverse.regularization import TotalVariation

    m = np.asarray(m0, dtype=float).copy()
    p = p0.copy()
    history = []
    reg = TotalVariation(grid, beta_tv) if beta_tv > 0 else None
    mu_min = 0.05 * float(np.min(m))  # keep the modulus positive
    for outer in range(outer_iterations):
        mat_prob = ScalarWaveInverseProblem(
            solver, grid, receivers, data, dt, nsteps,
            fault=fault, source_params=p, reg=reg,
            barrier_gamma=barrier_gamma, mu_min=mu_min,
        )
        res_m = gauss_newton_cg(
            mat_prob, m, max_newton=newton_per_block, cg_maxiter=cg_maxiter
        )
        m = res_m.m
        state = mat_prob.forward(m)
        history.append(
            {"outer": outer, "block": "material",
             "J_data": mat_prob.data_misfit(state)}
        )
        if verbose:
            print(f"outer {outer} material: J_data {history[-1]['J_data']:.4e}")

        mu_e = grid.to_elements(solver) @ m
        src_prob = SourceInverseProblem(
            solver, fault, mu_e, receivers, data, dt, nsteps,
            beta_u0=beta_source, beta_t0=beta_source, beta_T=beta_source,
        )
        res_p = gauss_newton_cg(
            src_prob, p.pack(), max_newton=newton_per_block,
            cg_maxiter=cg_maxiter,
        )
        p = SourceParams.unpack(res_p.m)
        s_state = src_prob.forward(p.pack())
        history.append(
            {"outer": outer, "block": "source",
             "J_data": src_prob.data_misfit(s_state)}
        )
        if verbose:
            print(f"outer {outer} source  : J_data {history[-1]['J_data']:.4e}")
    return JointResult(m=m, p=p, history=history)
