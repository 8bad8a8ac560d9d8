"""Inverse earthquake modeling (paper Section 3).

Discrete-adjoint nonlinear least squares: invert the shear modulus
field (scalar antiplane / 3D scalar waves), the fault source parameters
(dislocation amplitude ``u0``, rise time ``t0``, delay time ``T``), the
3D elastic Lamé fields or an attenuation field from receiver records,
with total-variation regularization on material fields and Tikhonov
regularization on the source fields.

Everything is discretize-then-optimize: gradients are the *exact*
adjoints of the leapfrog recurrence (verified against finite
differences to ~1e-7), so Gauss-Newton-CG converges the way the paper
reports.  The solver stack is:

* :class:`LeastSquaresProblem` — the recipe, written once: forward
  sweep and residuals, misfit + penalties + log-barrier, the reversed
  adjoint march, gradient and Gauss-Newton Hessian-vector products (one
  forward + one adjoint wave solve per CG iteration, as in the paper);
  multi-shot problems are a trailing axis of one march each way;
* :class:`ScalarWaveInverseProblem`, :class:`SourceInverseProblem`,
  :class:`ElasticInverseProblem`, :class:`AttenuationInverseProblem` —
  its physics hooks: parameters to model, march, parameter equation,
  incremental forcing table, penalty blocks;
* :func:`gauss_newton_cg` — Newton-CG with Armijo backtracking and a
  log-barrier safeguard for positivity;
* :class:`LBFGSPreconditioner` — Morales-Nocedal automatic
  preconditioning built from CG iterates, initialized with Frankel
  two-step stationary iterations on the regularization operator;
* :func:`multiscale_invert` — grid continuation from coarse material
  grids to fine, the paper's remedy for local minima.
"""

from repro.inverse.parametrization import MaterialGrid
from repro.inverse.regularization import TotalVariation, Tikhonov1D
from repro.inverse.fault_source import FaultLineSource2D
from repro.inverse.problem import (
    LeastSquaresProblem,
    ScalarWaveInverseProblem,
    Shot,
)
from repro.inverse.gauss_newton import GNResult, gauss_newton_cg
from repro.inverse.precond import LBFGSPreconditioner, frankel_solve
from repro.inverse.multiscale import multiscale_invert
from repro.inverse.source_inversion import SourceInverseProblem
from repro.inverse.joint import JointResult, joint_invert
from repro.inverse.problem import gaussian_time_kernel
from repro.inverse.elastic import ElasticInverseProblem
from repro.inverse.attenuation import AttenuationInverseProblem

__all__ = [
    "MaterialGrid",
    "TotalVariation",
    "Tikhonov1D",
    "FaultLineSource2D",
    "LeastSquaresProblem",
    "ScalarWaveInverseProblem",
    "Shot",
    "gauss_newton_cg",
    "GNResult",
    "LBFGSPreconditioner",
    "frankel_solve",
    "multiscale_invert",
    "SourceInverseProblem",
    "joint_invert",
    "JointResult",
    "gaussian_time_kernel",
    "ElasticInverseProblem",
    "AttenuationInverseProblem",
]
