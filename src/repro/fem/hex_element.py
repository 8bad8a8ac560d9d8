"""Reference trilinear hexahedral elastic element.

For a cube element of edge ``h`` and Lamé moduli ``(lambda, mu)`` the
element stiffness is

    ``K_e = h * (lambda * K_LAMBDA + mu * K_MU)``

with two 24x24 reference matrices computed once on the unit cube — this
is the paper's "all element stiffness matrices are the same modulo
element size and material properties", the property that removes all
matrix storage from the solver.

DOF ordering is node-major: dof ``3 i + a`` is component ``a`` of local
node ``i`` (Morton corner order).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.fem.shape import gauss_points_weights, shape_gradients


@lru_cache(maxsize=None)
def hex_elastic_reference() -> tuple[np.ndarray, np.ndarray]:
    """Return ``(K_LAMBDA, K_MU)``, the unit-cube reference matrices.

    Entries (2x2x2 Gauss, exact for these integrands):

    ``K_MU[(i,a),(j,b)]     = int mu-part     = delta_ab grad N_i . grad N_j + dN_j/dx_a dN_i/dx_b``
    ``K_LAMBDA[(i,a),(j,b)] = dN_i/dx_a dN_j/dx_b``
    """
    pts, w = gauss_points_weights(3, n=2)
    g = shape_gradients(pts, 3)  # (nq, 8, 3)
    K_l = np.zeros((24, 24))
    K_m = np.zeros((24, 24))
    # grad-dot term: (nq, 8, 8)
    graddot = np.einsum("qia,qja->qij", g, g)
    for a in range(3):
        for b in range(3):
            # int dN_i/dx_a dN_j/dx_b
            gab = np.einsum("q,qi,qj->ij", w, g[:, :, a], g[:, :, b])
            K_l[a::3, b::3] = gab
            K_m[a::3, b::3] = gab.T  # dN_j/dx_a dN_i/dx_b
            if a == b:
                K_m[a::3, b::3] += np.einsum("q,qij->ij", w, graddot)
    # symmetry check by construction
    return K_l, K_m


def hex_lumped_mass_factor() -> float:
    """Lumped (row-sum) mass per node of a unit-density unit cube:
    ``rho h^3 / 8`` per node per component."""
    return 1.0 / 8.0
