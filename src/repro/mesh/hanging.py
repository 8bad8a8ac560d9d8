"""Hanging grid points and the displacement continuity constraints.

On a 2-to-1 balanced octree mesh, a grid point that belongs to refined
elements but not to an unrefined neighbor is *hanging*.  Continuity of
the trilinear displacement approximation requires (paper Section 2.2):

* a hanging **edge-midside** value equals the average of the two
  non-hanging edge-endpoint neighbors (weights 1/2);
* a hanging **mid-face** value equals the average of the four
  non-hanging face-corner neighbors (weights 1/4).

These constraints are expressed as ``u = B ubar`` with ``ubar`` the
values at independent (non-hanging) grid points; ``B`` has a 1 on the
diagonal block for independent points and rows of 1/2 or 1/4 weights for
hanging points.  Constraint chains (a master that itself hangs on an
even coarser element) are resolved transitively, so every retained
master is independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.mesh.hexmesh import CORNER_OFFSETS, HexMesh
from repro.octree.linear_octree import LinearOctree


@dataclass
class HangingNodeInfo:
    """Constraint structure of a mesh.

    Attributes
    ----------
    hanging:
        Boolean mask over mesh nodes, True where the node hangs.
    independent:
        Indices of the independent (non-hanging) nodes; their position
        defines the column ordering of ``B``.
    B:
        Sparse ``(nnode, n_independent)`` CSR constraint matrix with
        ``u = B @ ubar``.
    masters / weights:
        Ragged per-hanging-node master lists (list of ``(node, weight)``
        arrays), after transitive resolution.
    """

    hanging: np.ndarray
    independent: np.ndarray
    B: sp.csr_matrix
    masters: dict

    @classmethod
    def from_masters(cls, hanging: np.ndarray, masters: dict) -> "HangingNodeInfo":
        """Constraints from the hanging mask and the resolved masters
        (``{node: {master: weight}}``): the independent nodes, in index
        order, are the columns of ``B``."""
        independent = np.nonzero(~hanging)[0]
        col_of = np.full(len(hanging), -1, dtype=np.int64)
        col_of[independent] = np.arange(len(independent))

        rows, cols, vals = [], [], []
        rows.extend(independent)
        cols.extend(col_of[independent])
        vals.extend(np.ones(len(independent)))
        for i, st in masters.items():
            for j, w in st.items():
                rows.append(i)
                cols.append(col_of[j])
                vals.append(w)
        B = sp.csr_matrix(
            (vals, (rows, cols)), shape=(len(hanging), len(independent))
        )
        return cls(hanging=hanging, independent=independent, B=B, masters=masters)

    @property
    def n_hanging(self) -> int:
        return int(np.sum(self.hanging))


def _incident_leaves(tree: LinearOctree, node_ticks: np.ndarray) -> list[np.ndarray]:
    """For every node, the distinct leaves whose closure touches it.

    We probe the 8 cells around the lattice point by offsetting the
    query by 0 or -1 tick per axis; :meth:`LinearOctree.locate` returns
    the containing leaf (or -1 off-domain).
    """
    n = len(node_ticks)
    found = np.full((n, 8), -1, dtype=np.int64)
    for k in range(8):
        off = -CORNER_OFFSETS[7 - k]  # offsets in {-1, 0}^3
        pts = node_ticks + off
        found[:, k] = tree.locate(pts)
    return found


def build_constraints(tree: LinearOctree, mesh: HexMesh) -> HangingNodeInfo:
    """Detect hanging nodes of ``mesh`` and build the constraint matrix.

    ``tree`` must be the balanced octree the mesh was extracted from.
    """
    nodes = mesh.node_ticks
    nnode = len(nodes)
    incident = _incident_leaves(tree, nodes)

    # a node hangs iff some incident leaf does not have it as a corner
    hanging = np.zeros(nnode, dtype=bool)

    # Collect, per node, the coarsest incident leaf for which the node
    # is not a corner.  Vectorized test: relative coords in {0, size}
    # componentwise <=> corner.
    anchors = tree.anchors
    sizes = tree.sizes
    for k in range(8):
        idx = incident[:, k]
        ok = idx >= 0
        if not np.any(ok):
            continue
        leaf = idx[ok]
        rel = nodes[ok] - anchors[leaf]
        s = sizes[leaf]
        is_corner = np.all((rel == 0) | (rel == s[:, None]), axis=1)
        viol = np.nonzero(ok)[0][~is_corner]
        if len(viol) == 0:
            continue
        hanging[viol] = True

    # masters: for each hanging node take any incident leaf of which it
    # is not a corner (with 2-to-1 balance there is exactly one coarse
    # host, possibly seen from several probes) and read off the edge /
    # face interpolation stencil
    masters: dict[int, dict[int, float]] = {}
    hang_idx = np.nonzero(hanging)[0]
    for i in hang_idx:
        host = -1
        for k in range(8):
            li = incident[i, k]
            if li < 0:
                continue
            rel = nodes[i] - anchors[li]
            s = sizes[li]
            if not np.all((rel == 0) | (rel == s)):
                host = li
                break
        assert host >= 0
        a, s = anchors[host], int(sizes[host])
        rel = nodes[i] - a
        mid_axes = np.nonzero(rel == s // 2)[0]
        fixed = {ax: int(rel[ax]) for ax in range(3) if ax not in mid_axes}
        if len(mid_axes) == 1:
            choices = [(0,), (s,)]
            w = 0.5
        elif len(mid_axes) == 2:
            choices = [(0, 0), (0, s), (s, 0), (s, s)]
            w = 0.25
        else:  # pragma: no cover - impossible on balanced trees
            raise RuntimeError("node at element center cannot be a grid point")
        stencil: dict[int, float] = {}
        for ch in choices:
            p = a.copy()
            for ax, v in fixed.items():
                p[ax] += v
            for ax, v in zip(mid_axes, ch):
                p[ax] += v
            stencil_key = _node_index(mesh, p)
            stencil[stencil_key] = stencil.get(stencil_key, 0.0) + w
        masters[int(i)] = stencil

    # transitive resolution: replace hanging masters by their masters
    for _ in range(4):
        changed = False
        for i, st in masters.items():
            if any(hanging[j] for j in st):
                new: dict[int, float] = {}
                for j, w in st.items():
                    if hanging[j]:
                        for jj, ww in masters[int(j)].items():
                            new[jj] = new.get(jj, 0.0) + w * ww
                    else:
                        new[j] = new.get(j, 0.0) + w
                masters[i] = new
                changed = True
        if not changed:
            break
    else:  # pragma: no cover
        raise RuntimeError("constraint chains did not resolve")
    return HangingNodeInfo.from_masters(hanging, masters)


def _node_index(mesh: HexMesh, ticks: np.ndarray) -> int:
    """Index of the mesh node at integer coordinates ``ticks``."""
    from repro.octree.morton import morton_encode

    if not hasattr(mesh, "_node_code_cache"):
        codes = morton_encode(
            mesh.node_ticks[:, 0], mesh.node_ticks[:, 1], mesh.node_ticks[:, 2]
        )
        order = np.argsort(codes)
        object.__setattr__(mesh, "_node_code_cache", (codes[order], order))
    codes_sorted, order = mesh._node_code_cache
    code = morton_encode(ticks[0], ticks[1], ticks[2])
    k = int(np.searchsorted(codes_sorted, code))
    if k >= len(codes_sorted) or codes_sorted[k] != code:
        raise KeyError(f"no mesh node at {ticks}")
    return int(order[k])
