"""Sorted linear octrees and wavelength-adaptive construction.

A *linear octree* stores only the leaf octants, as a sorted array of
packed Morton-code keys (paper Section 2.3, [19]).  Because the Morton
codes of all lattice points inside an octant form a contiguous range,
point location is a binary search.

:func:`build_adaptive_octree` implements the paper's refinement rule:
given a local target element size (``h = vs / (N_lambda * f_max)`` for
seismic meshes), an octant is refined while it is larger than the target
size at its location.  Non-cubic domains are supported through a box
fraction with power-of-two denominators, e.g. ``(1, 1, 3/8)`` meshes an
80 x 80 x 30 km box inside an 80 km cube.  The breadth-first
:func:`expand` is the one frontier expansion: the etree's streamed
construction (:func:`repro.etree.navigation.construct_octree`) runs it
once per chunk root with the same rule, :func:`size_refinement`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from repro.octree.morton import MAX_COORD, MAX_LEVEL, morton_encode
from repro.octree.octant import (
    octant_anchor,
    octant_children,
    octant_size,
    pack_key,
    unpack_key,
)


def _binary_fraction_ticks(frac: float) -> int:
    """Convert a box fraction to lattice ticks, requiring a power-of-two
    denominator so octant boundaries can align with the box exactly."""
    f = Fraction(frac).limit_denominator(MAX_COORD)
    if f <= 0 or f > 1:
        raise ValueError(f"box fraction must be in (0, 1], got {frac}")
    if f.denominator & (f.denominator - 1):
        raise ValueError(
            f"box fraction {frac} must have a power-of-two denominator "
            "(e.g. 3/8) so octants align with the box boundary"
        )
    return f.numerator * (MAX_COORD // f.denominator)


class LinearOctree:
    """Immutable sorted array of leaf octants.

    Parameters
    ----------
    keys:
        Packed ``(morton, level)`` keys of the leaves.  They are sorted
        on construction; the leaves must tile a region without overlap
        (this is checked lazily by :meth:`validate`).
    """

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys, dtype=np.uint64)
        self.keys = np.sort(keys)
        morton, level = unpack_key(self.keys)
        self.mortons = morton
        self.levels = level
        x, y, z, _ = octant_anchor(self.keys)
        #: integer anchor coordinates, shape (n, 3)
        self.anchors = np.stack([x, y, z], axis=1)
        #: integer edge lengths, shape (n,)
        self.sizes = octant_size(self.levels)

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearOctree) and np.array_equal(
            self.keys, other.keys
        )

    def __hash__(self):  # pragma: no cover - arrays are not hashable
        return NotImplemented

    def validate(self) -> None:
        """Check the leaves are unique and non-overlapping (Morton ranges
        of consecutive leaves must not intersect)."""
        if len(self.keys) == 0:
            return
        if np.any(np.diff(self.keys.view(np.uint64)) == 0):
            raise ValueError("duplicate leaf keys")
        span = self.sizes.astype(np.uint64) ** np.uint64(3)
        ends = self.mortons + span
        if np.any(ends[:-1] > self.mortons[1:]):
            raise ValueError("overlapping leaves")

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Return the index of the leaf containing each integer lattice
        point, or -1 for points outside every leaf.

        ``points`` is integer, shape ``(n, 3)``; a point is *contained*
        when ``anchor <= p < anchor + size`` componentwise.
        """
        points = np.asarray(points, dtype=np.int64)
        in_lattice = np.all((points >= 0) & (points < MAX_COORD), axis=1)
        q = np.where(in_lattice[:, None], points, 0)
        codes = morton_encode(q[:, 0], q[:, 1], q[:, 2])
        idx = np.searchsorted(self.mortons, codes, side="right") - 1
        ok = idx >= 0
        safe = np.where(ok, idx, 0)
        rel = points - self.anchors[safe]
        inside = np.all((rel >= 0) & (rel < self.sizes[safe, None]), axis=1)
        return np.where(ok & inside & in_lattice, idx, -1)


def expand(
    roots: np.ndarray,
    refine: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    *,
    max_level: int,
    box_ticks: np.ndarray,
) -> np.ndarray:
    """Breadth-first expansion of ``roots`` into sorted leaf keys.

    Level by level, octants wholly outside the box (``box_ticks``, the
    box's far corner in lattice ticks) are dropped, and an octant is
    split while it crosses the box boundary or, below ``max_level``,
    ``refine(centers, sizes, levels)`` asks for it (centers and sizes in
    root-cube units).  The expansion of a set of roots is the union of
    the expansions of each root, so it can be streamed root by root.
    """
    leaves = [np.array([], dtype=np.uint64)]
    frontier = np.asarray(roots, dtype=np.uint64)
    while len(frontier):
        x, y, z, lvl = octant_anchor(frontier)
        anchors = np.stack([x, y, z], axis=1)
        inside = np.all(anchors < box_ticks, axis=1)
        frontier, anchors, lvl = frontier[inside], anchors[inside], lvl[inside]
        if not len(frontier):
            break
        size = octant_size(lvl)
        crosses = np.any(anchors + size[:, None] > box_ticks, axis=1)
        if np.any(crosses & (lvl >= max_level)):
            raise ValueError("max_level too small to align with box_frac")
        centers = (anchors + 0.5 * size[:, None]) / MAX_COORD
        want = np.asarray(refine(centers, size / MAX_COORD, lvl), dtype=bool)
        split = crosses | (want & (lvl < max_level))
        leaves.append(frontier[~split])
        frontier = octant_children(frontier[split]).ravel()
    return np.sort(np.concatenate(leaves))


def size_refinement(
    target_size: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    box_ticks: np.ndarray,
    min_level: int = 0,
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The refinement rule of :func:`build_adaptive_octree` as an
    :func:`expand` callback: split while an octant is larger than
    ``target_size`` at its center, or coarser than ``min_level`` raised
    to the level at which octants align with ``box_ticks``."""
    align_level = 0
    for t in box_ticks:
        while t % octant_size(align_level) != 0:
            align_level += 1
    floor = max(min_level, align_level)

    def refine(centers, sizes, levels):
        h = np.asarray(target_size(centers, sizes), dtype=float)
        return (levels < floor) | (sizes > h + 1e-15)

    return refine


def build_adaptive_octree(
    target_size: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    max_level: int,
    min_level: int = 0,
    box_frac: Sequence[float] = (1.0, 1.0, 1.0),
) -> LinearOctree:
    """Construct a wavelength-adaptive linear octree (unbalanced).

    Parameters
    ----------
    target_size:
        Callable ``target_size(centers, sizes) -> h`` mapping octant
        centers (``(n, 3)`` float, in units of the root cube ``[0, 1]``)
        and current octant sizes (``(n,)`` float, same units) to the
        locally acceptable element size.  An octant is refined while its
        size exceeds the target.  For seismic meshing this is
        ``vs(x) / (N_lambda * f_max * L)`` (see
        :func:`repro.mesh.hexmesh.wavelength_target`).
    max_level / min_level:
        Refinement bounds.  ``min_level`` is also raised as needed so
        octants align with ``box_frac``.
    box_frac:
        Fractions of the root cube occupied by the meshed box in each
        axis; must have power-of-two denominators.

    Returns
    -------
    LinearOctree
        Leaves tiling exactly the requested box.
    """
    if not 0 <= min_level <= max_level <= MAX_LEVEL:
        raise ValueError("need 0 <= min_level <= max_level <= MAX_LEVEL")
    box_ticks = np.array([_binary_fraction_ticks(f) for f in box_frac])
    refine = size_refinement(target_size, box_ticks=box_ticks, min_level=min_level)
    root = np.array([pack_key(np.uint64(0), np.uint64(0))], dtype=np.uint64)
    return LinearOctree(expand(root, refine, max_level=max_level, box_ticks=box_ticks))
