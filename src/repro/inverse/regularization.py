"""Regularization functionals (paper eq. 3.1).

* :class:`TotalVariation` — smoothed TV ``beta int sqrt(|grad m|^2 +
  eps^2)`` on a :class:`MaterialGrid`; "inhibits oscillations but in
  addition avoids smoothing of discontinuities in the material field,
  thereby preserving sharp interfaces prevalent in layered geologic
  media".  The Gauss-Newton (lagged-diffusivity) Hessian freezes the
  ``1/sqrt(...)`` weights at the current iterate, which keeps it SPD.
* :class:`Tikhonov1D` — ``(beta/2) int |grad p|^2`` for the fault
  source fields ``u0(x), t0(x), T(x)`` (penalizes oscillations along
  the fault).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem.shape import shape_gradients
from repro.inverse.parametrization import MaterialGrid


class TotalVariation:
    """Smoothed total variation on a material grid."""

    def __init__(self, grid: MaterialGrid, beta: float, eps: float = 1e-3):
        self.grid = grid
        self.beta = float(beta)
        self.eps = float(eps)
        d = grid.d
        # cell-center gradient operators per axis: sparse (ncell, n)
        center = np.full((1, d), 0.5)
        g = shape_gradients(center, d)[0]  # (2^d, d), reference units
        ncell = int(np.prod(grid.shape))
        nn = 1 << d
        cells = np.stack(
            np.meshgrid(*[np.arange(n) for n in grid.shape], indexing="ij"),
            axis=-1,
        ).reshape(ncell, d)
        cols = np.empty((ncell, nn), dtype=np.int64)
        for k in range(nn):
            corner = cells + np.array([(k >> a) & 1 for a in range(d)])
            cols[:, k] = np.ravel_multi_index(tuple(corner.T), grid.node_shape)
        rows = np.repeat(np.arange(ncell), nn)
        self.G = []
        for a in range(d):
            vals = np.tile(g[:, a] / grid.h[a], (ncell, 1))
            self.G.append(
                sp.csr_matrix(
                    (vals.ravel(), (rows, cols.ravel())), shape=(ncell, grid.n)
                )
            )
        self.cell_volume = float(np.prod(grid.h))
        self.ncell = ncell

    def _grad_norms(self, m: np.ndarray):
        grads = [G @ m for G in self.G]
        s = np.sqrt(sum(g * g for g in grads) + self.eps**2)
        return grads, s

    def value(self, m: np.ndarray) -> float:
        _, s = self._grad_norms(m)
        return self.beta * self.cell_volume * float(np.sum(s))

    def gradient(self, m: np.ndarray) -> np.ndarray:
        grads, s = self._grad_norms(m)
        out = np.zeros(self.grid.n)
        for G, g in zip(self.G, grads):
            out += G.T @ (g / s)
        return self.beta * self.cell_volume * out

    def hessvec(self, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Lagged-diffusivity GN Hessian: weights frozen at ``m``."""
        _, s = self._grad_norms(m)
        out = np.zeros(self.grid.n)
        for G in self.G:
            out += G.T @ ((G @ v) / s)
        return self.beta * self.cell_volume * out


class Tikhonov1D:
    """``(beta/2) sum h |dp/dx|^2`` for a 1D parameter profile
    (fault-aligned source fields)."""

    def __init__(self, n: int, h: float, beta: float):
        self.n = int(n)
        self.h = float(h)
        self.beta = float(beta)
        if self.n >= 2:
            e = np.ones(self.n - 1) / self.h
            self.D = sp.diags(
                [-e, e], offsets=[0, 1], shape=(self.n - 1, self.n)
            ).tocsr()
        else:
            self.D = sp.csr_matrix((0, self.n))

    def value(self, p: np.ndarray) -> float:
        d = self.D @ p
        return 0.5 * self.beta * self.h * float(d @ d)

    def gradient(self, p: np.ndarray) -> np.ndarray:
        return self.beta * self.h * (self.D.T @ (self.D @ p))

    def hessvec(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``H v`` (``H`` is constant: ``p`` is taken for the interface
        :class:`TotalVariation` shares)."""
        return self.beta * self.h * (self.D.T @ (self.D @ v))
