"""Stacey's absorbing boundary condition (paper Section 2.1).

On a truncation face with outward normal ``n`` and tangents ``t1, t2``:

    ``S n = [[-d1 d/dt,  c1 d/dt1,  c1 d/dt2],
             [-c1 d/dt1, -d2 d/dt,  0       ],
             [-c1 d/dt2,  0,        -d2 d/dt]] (u_n, u_t1, u_t2)``

with ``c1 = -2 mu + sqrt(mu (lambda + 2 mu))``,
``d1 = sqrt(rho (lambda + 2 mu))`` (plane-wave impedance of P waves) and
``d2 = sqrt(rho mu)`` (impedance of S waves).  Discretizing the
boundary term of the weak form produces a (lumped) damping matrix
``C_AB`` from the ``d`` terms and a sparse first-order coupling matrix
``K_AB`` from the ``c1`` terms.  Both are local in space and time —
"particularly important for large-scale parallel implementation".

Dropping the ``c1`` terms recovers the classic Lysmer-Kuhlemeyer viscous
boundary (exact for normal incidence), exposed via ``include_c1=False``.

:class:`StaceyBoundary` is the condition on a hexahedral mesh's
absorbing planes, found once: the forward solvers, the linear-tet
baseline (on its hex faces) and the elastic inversion build their
boundary from it, and the inversion's material derivatives of the
damping live beside the damping itself.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from repro.fem.shape import gauss_points_weights, shape_functions, shape_gradients


def stacey_coefficients(lam, mu, rho):
    """``(d1, d2, c1)`` per boundary element."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    rho = np.asarray(rho, dtype=float)
    d1 = np.sqrt(rho * (lam + 2.0 * mu))
    d2 = np.sqrt(rho * mu)
    c1 = -2.0 * mu + np.sqrt(mu * (lam + 2.0 * mu))
    return d1, d2, c1


@lru_cache(maxsize=None)
def _face_gradient_reference(axis: int) -> np.ndarray:
    """``G[i, j] = int_[0,1]^2 N_i dN_j/dxi_axis`` on the reference quad."""
    pts, w = gauss_points_weights(2, n=2)
    N = shape_functions(pts, 2)
    g = shape_gradients(pts, 2)
    return np.einsum("q,qi,qj->ij", w, N, g[:, :, axis])


class StaceyBoundary:
    """Stacey's condition on the absorbing planes ``absorbing`` — ``(axis,
    side)`` pairs, side 0/1 the min/max plane, which fixes the outward
    normal — of a hexahedral mesh: the boundary faces, found once (their
    nodes in the mesh's 2D Morton corner order within the plane), and
    what a per-element material ``(lam, mu, rho)`` makes of them.

    ``C_diag`` is linear in the impedances ``(d1, d2)`` face by face, so
    its material derivative is the same lumped scatter of their
    derivatives (:meth:`damping_perturbation`)."""

    def __init__(self, mesh, absorbing):
        self.nnode = mesh.nnode
        self.planes = []
        for axis, side in absorbing:
            idx, fnodes = mesh.boundary_faces(axis, side)
            self.planes.append((axis, side, idx, fnodes, mesh.elem_h[idx]))

    def _assemble(self, coefficients, include_c1):
        """``(C_diag, K_AB)`` from ``coefficients(idx) -> (d1, d2, c1)``
        of the boundary elements ``idx`` of each plane."""
        nnode = self.nnode
        C = np.zeros((nnode, 3))
        rows, cols, vals = [], [], []
        for axis, side, idx, face_nodes, h in self.planes:
            if len(face_nodes) == 0:
                continue
            d1, d2, c1 = coefficients(idx)
            sign = 1.0 if side == 1 else -1.0  # u_n = sign * u_axis
            area4 = h**2 / 4.0  # lumped quarter-area per face node
            tangents = [a for a in range(3) if a != axis]
            # damping: d1 on the normal component, d2 on the tangentials
            np.add.at(C[:, axis], face_nodes.ravel(), np.repeat(d1 * area4, 4))
            for t in tangents:
                np.add.at(C[:, t], face_nodes.ravel(), np.repeat(d2 * area4, 4))
            if not include_c1:
                continue
            # c1 coupling: -c1 (du_t/dt) paired with v_n and +c1 (du_n/dt)
            # paired with v_t (signs from moving the boundary term of the
            # weak form to the left-hand side)
            for k, t in enumerate(tangents):
                G = _face_gradient_reference(k)  # int N_i dN_j/dxi_k, scale h
                # K[(i,axis),(j,t)] += -c1 * h * G[i,j]
                # K[(i,t),(j,axis)] += +c1 * h * G[i,j]
                coef = sign * c1 * h  # (nface,)
                gi = face_nodes[:, :, None] * 3  # base dof of node i
                gj = face_nodes[:, None, :] * 3
                blk = coef[:, None, None] * G[None, :, :]
                rows.append((gi + axis).repeat(4, axis=2).ravel())
                cols.append((gj + t).repeat(4, axis=1).ravel())
                vals.append(-blk.ravel())
                rows.append((gi + t).repeat(4, axis=2).ravel())
                cols.append((gj + axis).repeat(4, axis=1).ravel())
                vals.append(blk.ravel())
        if rows:
            K_AB = sp.coo_matrix(
                (
                    np.concatenate(vals),
                    (np.concatenate(rows), np.concatenate(cols)),
                ),
                shape=(3 * nnode, 3 * nnode),
            ).tocsr()
        else:
            K_AB = sp.csr_matrix((3 * nnode, 3 * nnode))
        return C, K_AB

    def matrices(self, lam, mu, rho, *, include_c1=True):
        """``(C_diag, K_AB)`` of the material: the lumped damping per
        node and component ``(nnode, 3)`` (it multiplies velocity) and
        the sparse ``(3 nnode, 3 nnode)`` coupling of the ``c1``
        tangential-derivative terms — empty when ``include_c1=False``,
        the Lysmer boundary."""
        return self._assemble(
            lambda idx: stacey_coefficients(lam[idx], mu[idx], rho[idx]),
            include_c1,
        )

    def damping_perturbation(self, lam, mu, rho, dlam, dmu) -> np.ndarray:
        """``(dC/dlambda) dlam + (dC/dmu) dmu`` as a nodal diagonal."""

        def derivatives(idx):
            d1, d2, _ = stacey_coefficients(lam[idx], mu[idx], rho[idx])
            dd1 = rho[idx] * (dlam[idx] + 2.0 * dmu[idx]) / (2.0 * d1)
            dd2 = rho[idx] * dmu[idx] / (2.0 * d2)
            return dd1, dd2, None

        return self._assemble(derivatives, False)[0]

    def material_gradient_batch(self, w, adj, lam, mu, rho):
        """``(sum_t adj^T dC/dlambda_e w, sum_t adj^T dC/dmu_e w)`` for
        time-batched nodal fields ``(nt, nnode, 3)``."""
        g_l = np.zeros(len(lam))
        g_m = np.zeros(len(lam))
        for axis, _, idx, fnodes, h in self.planes:
            d1, d2, _ = stacey_coefficients(lam[idx], mu[idx], rho[idx])
            area4 = h**2 / 4.0
            # contraction of adj*w over the face nodes, per component
            for comp in range(3):
                contrib = np.einsum(
                    "tsf,tsf->s", adj[:, fnodes, comp], w[:, fnodes, comp]
                ) * area4
                if comp == axis:
                    np.add.at(g_l, idx, contrib * rho[idx] / (2.0 * d1))
                    np.add.at(g_m, idx, contrib * rho[idx] / d1)
                else:
                    np.add.at(g_m, idx, contrib * rho[idx] / (2.0 * d2))
        return g_l, g_m
