"""Hexahedral mesh extraction from balanced octrees.

Each octree leaf becomes one trilinear hexahedral element.  The local
node ordering matches the Morton child order — node ``k`` sits at corner
``(k & 1, (k >> 1) & 1, (k >> 2) & 1)`` of the element — which is also
the ordering the reference element matrices in :mod:`repro.fem` use.

Coordinates: the octree root cube is the physical cube ``[0, L]^3``
with the *z* axis pointing down into the earth; the free surface is the
``z = 0`` plane and the truncation (absorbing) boundaries are the four
vertical faces and the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.octree.linear_octree import LinearOctree, _binary_fraction_ticks
from repro.octree.morton import MAX_COORD, morton_encode

#: local corner offsets of a hex element, Morton order
CORNER_OFFSETS = np.array(
    [(k & 1, (k >> 1) & 1, (k >> 2) & 1) for k in range(8)], dtype=np.int64
)

#: local node indices of the 6 faces keyed by (axis, side):
#: face (axis a, side 0) lies on the element's min-a plane
FACES = {
    (0, 0): np.array([0, 2, 4, 6]),
    (0, 1): np.array([1, 3, 5, 7]),
    (1, 0): np.array([0, 1, 4, 5]),
    (1, 1): np.array([2, 3, 6, 7]),
    (2, 0): np.array([0, 1, 2, 3]),
    (2, 1): np.array([4, 5, 6, 7]),
}


@dataclass
class HexMesh:
    """An unstructured multiresolution hexahedral mesh.

    Attributes
    ----------
    conn:
        ``(nelem, 8)`` int node indices in Morton corner order.
    node_ticks:
        ``(nnode, 3)`` integer lattice coordinates.
    elem_anchor / elem_size / elem_level:
        per-element anchors (ticks), edge lengths (ticks), octree levels.
    L:
        Physical edge length of the root cube (meters).
    box_ticks:
        Extent of the meshed box in ticks per axis.
    """

    conn: np.ndarray
    node_ticks: np.ndarray
    elem_anchor: np.ndarray
    elem_size: np.ndarray
    elem_level: np.ndarray
    L: float
    box_ticks: np.ndarray

    @property
    def nelem(self) -> int:
        return len(self.conn)

    @property
    def nnode(self) -> int:
        return len(self.node_ticks)

    @property
    def coords(self) -> np.ndarray:
        """Physical node coordinates, meters, shape ``(nnode, 3)``."""
        return self.node_ticks * (self.L / MAX_COORD)

    @property
    def elem_h(self) -> np.ndarray:
        """Physical element edge lengths, meters."""
        return self.elem_size * (self.L / MAX_COORD)

    @property
    def elem_centers(self) -> np.ndarray:
        """Physical element centers, meters, shape ``(nelem, 3)``."""
        return (self.elem_anchor + 0.5 * self.elem_size[:, None]) * (
            self.L / MAX_COORD
        )

    @property
    def box_lengths(self) -> np.ndarray:
        """Physical extents of the meshed box, meters."""
        return self.box_ticks * (self.L / MAX_COORD)


    def boundary_faces(self, axis: int, side: int) -> tuple[np.ndarray, np.ndarray]:
        """Element faces lying exactly on a box boundary plane.

        Parameters
        ----------
        axis, side:
            ``axis`` in {0, 1, 2}; ``side`` 0 for the min plane (e.g.
            ``z = 0``, the free surface) or 1 for the max plane.

        Returns
        -------
        (elem_idx, face_nodes):
            indices of boundary elements and their ``(n, 4)`` global
            face-node indices.
        """
        if side == 0:
            on = self.elem_anchor[:, axis] == 0
        else:
            on = self.elem_anchor[:, axis] + self.elem_size == self.box_ticks[axis]
        idx = np.nonzero(on)[0]
        local = FACES[(axis, side)]
        return idx, self.conn[np.ix_(idx, local)]

    def surface_nodes(self, axis: int, side: int) -> np.ndarray:
        """Unique node indices on a boundary plane."""
        plane = 0 if side == 0 else self.box_ticks[axis]
        return np.nonzero(self.node_ticks[:, axis] == plane)[0]


def extract_mesh(
    tree: LinearOctree,
    *,
    L: float = 1.0,
    box_frac: Sequence[float] = (1.0, 1.0, 1.0),
) -> HexMesh:
    """Derive the element-node relation and node coordinates from a
    (balanced) linear octree — the paper's *transform* step.

    Node ids are assigned in Morton order of the node coordinates, so
    numbering is deterministic and spatially local (cache-friendly
    gathers in the element-based matvec).
    """
    anchors = tree.anchors
    sizes = tree.sizes
    corners = anchors[:, None, :] + CORNER_OFFSETS[None, :, :] * sizes[:, None, None]
    corners = corners.reshape(-1, 3)
    # unique node numbering via Morton codes of corner coordinates;
    # corners can sit at MAX_COORD (domain max), so encode on a lattice
    # shifted by nothing — morton supports up to 2^21 per axis, and
    # MAX_COORD = 2^16 keeps codes well in range
    codes = morton_encode(corners[:, 0], corners[:, 1], corners[:, 2])
    unique_codes, first, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    conn = inverse.reshape(len(anchors), 8)
    node_ticks = corners[first]
    box_ticks = np.array([_binary_fraction_ticks(f) for f in box_frac])
    return HexMesh(
        conn=conn,
        node_ticks=node_ticks,
        elem_anchor=anchors.copy(),
        elem_size=sizes.copy(),
        elem_level=tree.levels.copy(),
        L=float(L),
        box_ticks=box_ticks,
    )


def uniform_hex_mesh(n: int, *, L: float = 1.0) -> HexMesh:
    """A uniform ``n x n x n`` hex mesh of the cube (testing/baselines)."""
    if n < 1 or (n & (n - 1)):
        raise ValueError("n must be a power of two")
    level = int(np.log2(n))
    from repro.octree.linear_octree import build_adaptive_octree

    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=level
    )
    return extract_mesh(tree, L=L)


def estimate_mesh_size(
    material,
    *,
    L: float,
    fmax: float,
    box_frac: Sequence[float] = (1.0, 1.0, 1.0),
    points_per_wavelength: float = 10.0,
    h_min: float = 0.0,
    samples: int = 200_000,
    seed: int = 0,
) -> dict:
    """Predict mesh size and solve work without building the mesh.

    A wavelength-adaptive mesh has local element size
    ``h(x) = max(vs(x) / (N_lambda f_max), h_min)``, so the element
    count is the Monte-Carlo integral of ``h(x)^-3`` over the box, and
    the explicit solve's work scales as ``N * nsteps`` with
    ``nsteps ~ 1/dt ~ vp_max / h_min_model``.

    This quantifies the paper's scaling law — "each doubling of
    frequency leads to a factor of 8 increase in grid size and factor
    of 16 increase in work" — and reproduces its 2 Hz projection
    (~1.2 B grid points for the LA basin) from the model alone.

    Returns a dict with ``elements``, ``grid_points`` (~= elements for
    large octree meshes), ``time_steps_per_second`` and ``work`` (grid
    point-steps per simulated second).
    """
    rng = np.random.default_rng(seed)
    extent = np.array(box_frac, dtype=float) * L
    pts = rng.random((samples, 3)) * extent
    vs, vp, _ = material.query(pts)
    h = np.maximum(
        np.asarray(vs, dtype=float) / (points_per_wavelength * fmax), h_min
    )
    volume = float(np.prod(extent))
    elements = volume * float(np.mean(1.0 / h**3))
    # CFL: the stiffest-to-size ratio governs the step
    steps_per_s = float(np.max(np.asarray(vp, dtype=float) / h)) * np.sqrt(3.0) * 2.0
    return {
        "elements": elements,
        "grid_points": elements,  # hexahedral octree: ~1 node/element
        "time_steps_per_second": steps_per_s,
        "work": elements * steps_per_s,
    }


def wavelength_target(
    vs_query: Callable[[np.ndarray], np.ndarray],
    *,
    L: float,
    fmax: float,
    points_per_wavelength: float = 10.0,
    h_min: float = 0.0,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Refinement rule of the paper: ``h = vs / (N_lambda * f_max)``.

    Parameters
    ----------
    vs_query:
        Vectorized shear-wave velocity (m/s) at physical points
        ``(n, 3)`` meters.
    L:
        Physical root-cube edge (meters).
    fmax:
        Highest resolved frequency (Hz).
    points_per_wavelength:
        Grid points per shortest wavelength, ``N_lambda`` (paper uses 10).
    h_min:
        Optional floor on the element size (meters), e.g. to cap the
        mesh size in scaled-down runs.

    Returns
    -------
    callable suitable as ``target_size`` for
    :func:`repro.octree.build_adaptive_octree` (arguments in root-cube
    units).
    """

    def target(centers: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        vs = np.asarray(vs_query(centers * L), dtype=float)
        h = vs / (points_per_wavelength * fmax)
        return np.maximum(h, h_min) / L

    return target
