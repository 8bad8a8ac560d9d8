"""2-to-1 balancing of linear octrees.

The paper's meshes enforce the *2-to-1 constraint*: adjacent leaves
(across faces, edges, and corners) may differ by at most one level, so
hanging grid points are always edge or face midpoints of exactly one
coarser neighbor.

:func:`balance_octree` is the plain "ripple" algorithm, vectorized in
rounds: every queued octant samples the 26 centers of its would-be
equal-size neighbors, locates the containing leaves by Morton binary
search, and any leaf more than one level coarser is split.  Splitting
can create new violations, so newly created children (and unsatisfied
demanders) are re-queued until the tree is balanced.

:func:`balance_blocks` is the paper's *local balancing* (Section 2.3):
the domain is partitioned into equal-size blocks, each block is
balanced internally against only its own leaves, and a final boundary
phase resolves interactions between adjacent blocks.  It reads the
leaves one block at a time through a range-scan callback, so the same
routine balances an in-memory tree (:func:`local_balance_octree`) and
an on-disk etree (:func:`repro.etree.pipeline.balance_step`).  The minimal
balanced refinement of an octree is unique, so the result is identical
to the global algorithm; the blocked version touches much smaller index
structures in the (dominant) internal phase.
"""

from __future__ import annotations

import numpy as np

from repro.octree.linear_octree import LinearOctree
from repro.octree.morton import MAX_COORD, morton_decode
from repro.octree.octant import (
    octant_anchor,
    octant_children,
    octant_size,
    pack_key,
)

# the 26 neighbor direction offsets (faces, edges, corners)
_DIRS = np.array(
    [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ],
    dtype=np.int64,
)


def _neighbor_samples(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample points at the centers of the 26 equal-size neighbors of
    each octant.  Returns ``(points, levels)`` with points of shape
    ``(n * 26, 3)`` and the demanding octant's level repeated alongside.
    """
    x, y, z, level = octant_anchor(keys)
    size = octant_size(level)
    anchors = np.stack([x, y, z], axis=1)
    centers = anchors[:, None, :] + _DIRS[None, :, :] * size[:, None, None]
    centers = centers + (size[:, None, None] // 2)
    points = centers.reshape(-1, 3)
    levels = np.repeat(level, len(_DIRS))
    return points, levels


def _balance_rounds(
    keys: np.ndarray,
    queue: np.ndarray,
    *,
    restrict_block: tuple[np.ndarray, int] | None = None,
) -> np.ndarray:
    """Run ripple-balance rounds until no 2-to-1 violation remains.

    ``keys`` is the full working set of leaves; ``queue`` the initial
    octants whose neighborhoods must be checked.  If ``restrict_block``
    is given as ``(block_anchor, block_size)``, sample points outside
    that block are ignored (used by the internal phase of local
    balancing).
    """
    keyset = set(int(k) for k in keys)
    while len(queue):
        tree = LinearOctree(np.fromiter(keyset, dtype=np.uint64, count=len(keyset)))
        points, dlevels = _neighbor_samples(queue)
        if restrict_block is not None:
            anchor, bsize = restrict_block
            inside = np.all(
                (points >= anchor) & (points < anchor + bsize), axis=1
            )
        else:
            inside = np.all((points >= 0) & (points < MAX_COORD), axis=1)
        idx = np.full(len(points), -1, dtype=np.int64)
        if np.any(inside):
            idx[inside] = tree.locate(points[inside])
        found = idx >= 0
        viol = found & (tree.levels[np.where(found, idx, 0)] < dlevels - 1)
        if not np.any(viol):
            break
        split_keys = np.unique(tree.keys[idx[viol]])
        children = octant_children(split_keys).ravel()
        for k in split_keys:
            keyset.discard(int(k))
        keyset.update(int(k) for k in children)
        # requeue: the new children (their finer level may impose new
        # demands) and the demanders whose request was only partially met
        demanders = np.unique(np.repeat(queue, len(_DIRS))[viol])
        queue = np.unique(np.concatenate([children, demanders]))
    return np.fromiter(keyset, dtype=np.uint64, count=len(keyset))


def balance_octree(tree: LinearOctree) -> LinearOctree:
    """Globally enforce the 2-to-1 constraint (ripple algorithm)."""
    keys = _balance_rounds(tree.keys.copy(), tree.keys.copy())
    return LinearOctree(keys)


def balance_blocks(scan, blocks_per_axis: int) -> np.ndarray:
    """Local balancing (paper Section 2.3) of an octree read block by block.

    The domain is split into ``blocks_per_axis**3`` equal cubes, visited
    in Morton order; ``scan(lo, hi)`` returns the sorted leaf keys in
    ``[lo, hi)`` (``uint64`` bounds), which are exactly the leaves
    anchored in one cube.  Each block is balanced *internally*, against
    its own leaves only; then a *boundary* phase re-queues every leaf
    touching a block face and ripples the remaining violations through
    the merged tree.  A leaf larger than a block is anchored on a block
    face, so the boundary phase handles it.  Returns the sorted keys.
    """
    if blocks_per_axis < 1 or (MAX_COORD % blocks_per_axis):
        raise ValueError("blocks_per_axis must divide the lattice size")
    bsize = MAX_COORD // blocks_per_axis
    merged = [np.array([], dtype=np.uint64)]
    for m0 in range(0, MAX_COORD**3, bsize**3):
        keys = scan(pack_key(m0, 0), pack_key(m0 + bsize**3, 0))
        anchor = np.array(morton_decode(np.uint64(m0)), dtype=np.int64)
        merged.append(_balance_rounds(keys, keys, restrict_block=(anchor, bsize)))
    keys = np.concatenate(merged)
    x, y, z, lvl = octant_anchor(keys)
    lo = np.stack([x, y, z], axis=1)
    hi = lo + octant_size(lvl)[:, None]
    touches = np.any((lo % bsize == 0) | (hi % bsize == 0), axis=1)
    return np.sort(_balance_rounds(keys, keys[touches]))


def local_balance_octree(tree: LinearOctree, blocks_per_axis: int = 4) -> LinearOctree:
    """Blocked local balancing of an in-memory tree: :func:`balance_blocks`
    with binary-search range scans of its sorted keys."""
    keys = tree.keys
    return LinearOctree(balance_blocks(
        lambda lo, hi: keys[keys.searchsorted(lo) : keys.searchsorted(hi)],
        blocks_per_axis,
    ))


def is_balanced(tree: LinearOctree) -> bool:
    """Check the 2-to-1 constraint across faces, edges, and corners."""
    points, dlevels = _neighbor_samples(tree.keys)
    inside = np.all((points >= 0) & (points < MAX_COORD), axis=1)
    idx = np.full(len(points), -1, dtype=np.int64)
    idx[inside] = tree.locate(points[inside])
    found = idx >= 0
    viol = found & (tree.levels[np.where(found, idx, 0)] < dlevels - 1)
    return not bool(np.any(viol))
