"""Element partitioning for the parallel solver.

The paper partitions elements with ParMETIS (Figure 2.3d).  The
stand-in is :func:`rcb_partition` — recursive coordinate bisection on
element centroids, the workhorse for octree meshes (geometric locality
gives low surface-to-volume interfaces).

:func:`partition_metrics` reports the quantities that drive parallel
efficiency: per-part element/grid-point counts, interface (shared) grid
points, and dual-graph edge cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.hexmesh import HexMesh


def rcb_partition(
    centroids: np.ndarray,
    nparts: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Recursive coordinate bisection.

    Splits the element set along the longest coordinate extent into two
    halves with element counts proportional to the number of parts on
    each side (so any ``nparts`` is supported, not only powers of two).

    Unweighted splits use :func:`np.argpartition` selection — ``O(n)``
    per level instead of the ``O(n log n)`` of a full sort, so the whole
    recursion is ``O(n log P)`` rather than ``O(n log n log P)``.  With
    explicit ``weights`` the weighted cut point needs the cumulative
    weight profile, which requires the sorted order.

    Returns the part index (``0..nparts-1``) per element.
    """
    centroids = np.asarray(centroids, dtype=float)
    n = len(centroids)
    uniform = weights is None
    if uniform:
        weights = np.ones(n)
    parts = np.zeros(n, dtype=np.int64)
    if nparts < 1:
        raise ValueError("nparts must be >= 1")

    def split(idx: np.ndarray, base: int, p: int) -> None:
        if p == 1 or len(idx) == 0:
            parts[idx] = base
            return
        pts = centroids[idx]
        extent = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(extent))
        p_lo = p // 2
        if len(idx) == 1:
            lo, hi = idx[:0], idx
        elif uniform:
            # same cut index the cumsum/searchsorted form produces for
            # unit weights, found by selection instead of sorting
            cut = int(np.ceil(len(idx) * p_lo / p))
            cut = min(max(cut, 1), len(idx) - 1)
            sel = np.argpartition(pts[:, axis], cut - 1)
            lo, hi = idx[sel[:cut]], idx[sel[cut:]]
        else:
            w = weights[idx]
            order = np.argsort(pts[:, axis], kind="stable")
            cw = np.cumsum(w[order])
            target = cw[-1] * (p_lo / p)
            cut = int(np.searchsorted(cw, target)) + 1
            cut = min(max(cut, 1), len(idx) - 1)
            lo, hi = idx[order[:cut]], idx[order[cut:]]
        split(lo, base, p_lo)
        split(hi, base + p_lo, p - p_lo)

    split(np.arange(n), 0, nparts)
    return parts


@dataclass
class PartitionMetrics:
    """Quality metrics of an element partition."""

    nparts: int
    elems_per_part: np.ndarray
    nodes_per_part: np.ndarray
    shared_nodes_per_part: np.ndarray
    imbalance: float
    edge_cut: int
    total_shared_nodes: int


def partition_metrics(mesh: HexMesh, parts: np.ndarray) -> PartitionMetrics:
    """Compute load balance and interface sizes of a partition.

    A grid point is *shared* by a part when elements of more than one
    part touch it — these are the points whose values must be combined
    across ranks each time step.
    """
    parts = np.asarray(parts)
    nparts = int(parts.max()) + 1 if len(parts) else 0
    elems_per_part = np.bincount(parts, minlength=nparts)

    # node -> set of parts via (node, part) pair dedup
    pairs = np.stack(
        [mesh.conn.ravel(), np.repeat(parts, 8)], axis=1
    )
    pairs = np.unique(pairs, axis=0)
    nodes_per_part = np.bincount(pairs[:, 1], minlength=nparts)
    node_degree = np.bincount(pairs[:, 0], minlength=mesh.nnode)
    shared_mask = node_degree > 1
    shared_nodes = np.nonzero(shared_mask)[0]
    shared_pairs = pairs[np.isin(pairs[:, 0], shared_nodes)]
    shared_per_part = np.bincount(shared_pairs[:, 1], minlength=nparts)

    # dual-graph edge cut through face adjacency: count (elem, elem)
    # face pairs in different parts.  Face adjacency via node sharing
    # would be quadratic; instead use geometric face matching on the
    # octree lattice.
    edge_cut = _face_edge_cut(mesh, parts)
    avg = mesh.nelem / nparts
    imbalance = float(elems_per_part.max() / avg) if nparts else 1.0
    return PartitionMetrics(
        nparts=nparts,
        elems_per_part=elems_per_part,
        nodes_per_part=nodes_per_part,
        shared_nodes_per_part=shared_per_part,
        imbalance=imbalance,
        edge_cut=edge_cut,
        total_shared_nodes=int(shared_mask.sum()),
    )


def _face_edge_cut(mesh: HexMesh, parts: np.ndarray) -> int:
    """Count face-adjacent element pairs assigned to different parts."""
    from repro.octree.morton import morton_encode

    # sort elements by anchor code for probe lookup
    codes = morton_encode(
        mesh.elem_anchor[:, 0], mesh.elem_anchor[:, 1], mesh.elem_anchor[:, 2]
    )
    order = np.argsort(codes)
    sorted_codes = codes[order]

    cut = 0
    for axis in range(3):
        # probe the element on the +axis side by its anchor; covers
        # same-size and fine-to-coarse adjacency approximately (exact
        # for conforming faces, which dominate communication volume)
        probe = mesh.elem_anchor.copy()
        probe[:, axis] += mesh.elem_size
        inb = probe[:, axis] < mesh.box_ticks[axis]
        pc = morton_encode(probe[:, 0], probe[:, 1], probe[:, 2])
        k = np.searchsorted(sorted_codes, pc)
        k = np.clip(k, 0, len(sorted_codes) - 1)
        hit = inb & (sorted_codes[k] == pc)
        nbr = order[k]
        cut += int(np.sum(hit & (parts != parts[nbr])))
    return cut
