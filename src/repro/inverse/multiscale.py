"""Multiscale grid continuation (paper Section 3.1, Figure 3.2).

"One of the nefarious properties of the nonlinear optimization
formulation of the inverse wave propagation problem is the existence of
numerous local minima, possessing a radius of Newton convergence
proportional to the wavelength of propagating waves. [...] Here we
appeal to multiscale grid continuation, which in our experience
circumvents the problem by keeping successively finer scale inversion
estimates within the radius of the ball of convergence."

:func:`multiscale_invert` solves the material inversion on a sequence
of material grids, coarse to fine, prolonging each solution to seed the
next level.  The wave grid stays fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.inverse.gauss_newton import GNResult, gauss_newton_cg
from repro.inverse.parametrization import MaterialGrid
from repro.inverse.precond import LBFGSPreconditioner
from repro.inverse.regularization import TotalVariation


@dataclass
class MultiscaleResult:
    """Per-level solutions and accounting."""

    levels: list  # (grid_shape, GNResult)
    m_final: np.ndarray
    grid_final: MaterialGrid

    @property
    def total_cg_iterations(self) -> int:
        return sum(r.total_cg_iterations for _, r in self.levels)


def multiscale_invert(
    make_problem: Callable[[MaterialGrid, int], object],
    grids: Sequence[MaterialGrid],
    m_init: float | np.ndarray,
    *,
    beta_tv: float = 0.0,
    newton_per_level: int = 8,
    cg_maxiter: int = 40,
    verbose: bool = False,
    level_callback: Callable | None = None,
) -> MultiscaleResult:
    """Run the inversion over a coarse-to-fine material grid sequence.

    Parameters
    ----------
    make_problem:
        Factory ``make_problem(grid, level) -> ScalarWaveInverseProblem``
        — called once per level, so each level's problem carries its own
        prolongation (and its TV regularizer can be attached here or via
        ``beta_tv``); the level index lets it vary e.g. the residual
        smoother (frequency continuation).
    grids:
        Material grids, coarse to fine.
    m_init:
        Homogeneous initial modulus (scalar) or nodal array on the
        coarsest grid.
    """
    levels = []
    m = None
    for li, grid in enumerate(grids):
        problem = make_problem(grid, li)
        if beta_tv > 0 and problem.reg is None:
            problem.reg = TotalVariation(grid, beta_tv)
        if m is None:
            m = (
                np.full(grid.n, float(m_init))
                if np.isscalar(m_init)
                else np.asarray(m_init, dtype=float).copy()
            )
        else:
            m = grids[li - 1].to_finer(grid) @ m
        result = gauss_newton_cg(
            problem,
            m,
            max_newton=newton_per_level,
            cg_maxiter=cg_maxiter,
            precond=LBFGSPreconditioner(grid.n),
            verbose=verbose,
        )
        m = result.m
        levels.append((grid.shape, result))
        if verbose:
            print(
                f"level {li} {grid.shape}: J={result.objective:.4e} "
                f"newton={result.newton_iterations} cg={result.total_cg_iterations}"
            )
        if level_callback is not None:
            level_callback(li, grid, m, result)
    return MultiscaleResult(levels=levels, m_final=m, grid_final=grids[-1])
