"""Reduced-Hessian preconditioning (paper Section 3.1, [13, 14, 26]).

:class:`LBFGSPreconditioner` implements Morales-Nocedal automatic
preconditioning: curvature pairs ``(s, H s)`` harvested from the CG
iterations of one Gauss-Newton step build a limited-memory BFGS
approximation of the reduced Hessian inverse that preconditions the
*next* step's CG.  Its base matrix ``H0`` is the scaled identity
``(s^T y / y^T y) I`` of the newest pair unless a ``base_apply`` is
given.  The paper's choice of ``H0`` — a few **Frankel two-step**
(second-order stationary Richardson) iterations on the regularization
operator, :func:`frankel_solve` with :func:`power_estimate_lmax` for
the spectrum bound — is written here, but the one construction in the
product (:func:`repro.inverse.multiscale.multiscale_invert`) passes no
``base_apply``, so only the tests reach it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np


def frankel_solve(
    apply_A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    lam_min: float,
    lam_max: float,
    iters: int = 8,
) -> np.ndarray:
    """Frankel's two-step stationary iteration for SPD ``A x = b``.

    With spectrum in ``[lam_min, lam_max]``:

        ``x_{k+1} = x_k + beta (x_k - x_{k-1}) + gamma (b - A x_k)``,
        ``gamma = 4 / (sqrt(lam_min) + sqrt(lam_max))^2``,
        ``beta = ((sqrt(lam_max) - sqrt(lam_min)) /
                  (sqrt(lam_max) + sqrt(lam_min)))^2``

    — the stationary limit of the Chebyshev semi-iteration, with
    asymptotic convergence factor ``sqrt(beta)``.
    """
    if not 0 < lam_min <= lam_max:
        raise ValueError("need 0 < lam_min <= lam_max")
    sa, sb = np.sqrt(lam_min), np.sqrt(lam_max)
    gamma = 4.0 / (sa + sb) ** 2
    beta = ((sb - sa) / (sb + sa)) ** 2
    x_prev = np.zeros_like(b)
    # first step: optimal first-order Richardson
    x = (2.0 / (lam_min + lam_max)) * b
    for _ in range(iters):
        r = b - apply_A(x)
        x_next = x + beta * (x - x_prev) + gamma * r
        x_prev, x = x, x_next
    return x


def power_estimate_lmax(
    apply_A: Callable[[np.ndarray], np.ndarray],
    n: int,
    iters: int = 20,
    seed: int = 0,
) -> float:
    """Largest-eigenvalue estimate by power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        w = apply_A(v)
        lam = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 1.0
        v = w / nw
    return max(lam, 1e-30)


class LBFGSPreconditioner:
    """Morales-Nocedal automatic preconditioner.

    Parameters
    ----------
    n:
        Parameter dimension.
    memory:
        Number of ``(s, y)`` pairs retained.
    base_apply:
        Optional ``H0 r`` action (e.g. Frankel iterations on the
        regularization operator); identity when None.
    """

    def __init__(
        self,
        n: int,
        memory: int = 10,
        base_apply: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.n = int(n)
        self.memory = int(memory)
        self.base_apply = base_apply
        self.pairs: deque = deque(maxlen=self.memory)
        self._staged: list = []

    def stage_pair(self, s: np.ndarray, y: np.ndarray) -> None:
        """Record a curvature pair from the current CG solve; it becomes
        active for the *next* Newton iteration (Morales-Nocedal)."""
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            self._staged.append((s.copy(), y.copy(), sy))

    def commit(self) -> None:
        """Promote staged pairs (call between Newton iterations)."""
        for p in self._staged[-self.memory :]:
            self.pairs.append(p)
        self._staged = []

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Two-loop recursion ``H_lbfgs r``."""
        q = r.copy()
        alphas = []
        for s, y, sy in reversed(self.pairs):
            a = (s @ q) / sy
            alphas.append(a)
            q = q - a * y
        if self.base_apply is not None:
            q = self.base_apply(q)
        else:
            if self.pairs:
                s, y, sy = self.pairs[-1]
                q = q * (sy / (y @ y))
        for (s, y, sy), a in zip(self.pairs, reversed(alphas)):
            b = (y @ q) / sy
            q = q + (a - b) * s
        return q
