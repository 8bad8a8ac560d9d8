"""Reference computations that only the tests use: the Haskell check's
plane-wave driver, the octree's covered volume and the dense
trilinear hexahedral element matrices."""

import numpy as np

from repro.fem.hex_element import hex_elastic_reference
from repro.fem.shape import gauss_points_weights, shape_functions


def plane_wave_injection(solver, mu, incident_velocity, dt, *, axis=None,
                         side=1):
    """``forcing(k)`` for :meth:`RegularGridScalarWave.march` (``dt^2``
    scaling included) that injects a plane wave through the absorbing
    face ``(axis, side)`` of ``solver``.

    With a Lysmer dashpot on the boundary, an incident wave of particle
    velocity ``v_inc(t)`` is realized by the traction ``2 sqrt(rho mu)
    v_inc`` on the face (the factor 2 compensates the dashpot absorbing
    half of it)."""
    axis = solver.d - 1 if axis is None else axis
    if (axis, side) not in solver.absorbing:
        raise ValueError("plane waves must enter through an absorbing face")
    mu = np.asarray(mu, dtype=float)
    elems, fnodes = solver._boundary[solver.absorbing.index((axis, side))]
    w = solver.h ** (solver.d - 1) / (1 << (solver.d - 1))
    coef = 2.0 * np.sqrt(solver.rho * mu[elems]) * w  # per face element
    amp_node = np.bincount(
        fnodes.ravel(),
        weights=dt**2 * np.repeat(coef, fnodes.shape[1]),
        minlength=solver.nnode,
    )
    buf = np.zeros(solver.nnode)  # reused: march only reads it

    def forcing(k):
        v = float(incident_velocity(k * dt))
        if v == 0.0:
            return None
        np.multiply(amp_node, v, out=buf)
        return buf

    return forcing


def covered_volume(tree) -> int:
    """Total lattice volume covered by the leaves of a
    :class:`~repro.octree.linear_octree.LinearOctree`."""
    return int(np.sum(tree.sizes.astype(object) ** 3))


def hex_element_stiffness(h: float, lam: float, mu: float) -> np.ndarray:
    """Dense 24x24 element stiffness for a cube of edge ``h``."""
    K_l, K_m = hex_elastic_reference()
    return h * (lam * K_l + mu * K_m)


def hex_consistent_mass_reference() -> np.ndarray:
    """Unit-cube scalar consistent mass ``int N_i N_j`` (8x8); the
    vector-valued mass is block-diagonal per component."""
    pts, w = gauss_points_weights(3, n=2)
    N = shape_functions(pts, 3)
    return np.einsum("q,qi,qj->ij", w, N, N)
