"""Element partition of a mesh: which rank holds which elements and
grid points, and which points it shares with whom.

Elements are partitioned across ranks (ParMETIS in the paper, RCB
here); each rank owns its elements and a local copy of every grid point
they touch.  Grid points shared between ranks hold only partial sums of
a stiffness application, so every step each rank ships its partials on
shared points to the co-owning ranks and accumulates what it receives —
the exchange ``dist_solver._RankFrame.exchange`` runs, written once.

To let that exchange hide behind compute, each rank's elements are
ordered **interface first**: the elements touching any shared grid
point form a prefix, and the rank's operator is built with the
matching ``split_elems``: a cut between its element blocks.  A time
step then applies the blocks before the cut, ships the boundary partial
sums, and runs the blocks after it while the messages are in flight.

:func:`rank_partitions` is plain data from ``(mesh, parts, nranks)``:
no transport, no material.  :func:`per_step_profile` counts one step's
work and traffic per rank from it, for the machine model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.numpy_backend import element_flops
from repro.mesh.hexmesh import HexMesh
from repro.solver.wave_solver import update_flops_per_node


@dataclass
class RankPartition:
    """One rank's share of the mesh.

    ``elements``/``local_conn`` are ordered interface-first: the first
    ``n_iface_elems`` entries touch at least one shared grid point.
    ``gather_nodes``/``gather_local`` name the grid points this rank
    contributes to a global gather (its nodes whose lowest co-owner it
    is), so gathers are deterministic under concurrent writers.
    """

    elements: np.ndarray  # global element ids (interface first)
    nodes: np.ndarray  # global node ids owned as local copies (sorted)
    local_conn: np.ndarray  # connectivity renumbered into local nodes
    shared_with: dict  # neighbor rank -> (local idx of shared nodes,
    #                                      matching global ids)
    n_iface_elems: int  # leading elements touching shared nodes
    gather_nodes: np.ndarray  # global ids this rank gathers
    gather_local: np.ndarray  # their local indices


def rank_partitions(
    mesh: HexMesh, parts: np.ndarray, nranks: int
) -> list[RankPartition]:
    """Split ``mesh`` by the element-to-rank map ``parts`` into one
    :class:`RankPartition` per rank.

    One pass over the (grid point, rank) incidence, sorted once as the
    1-D key ``node * nranks + rank``: a rank's rows are its sorted
    nodes, a node's rows its co-owners in rank order (the first is the
    lowest owner), and every rank's neighbours and shared points come
    from one group-by of the rows of shared nodes.

    ``parts`` must be integer, one id per element, each in
    ``[0, nranks)`` (``ValueError`` otherwise): an element outside
    every rank would silently drop out of the solve.
    """
    parts = np.asarray(parts)
    if not np.issubdtype(parts.dtype, np.integer):
        raise ValueError(f"parts must be integer, got {parts.dtype}")
    if parts.shape != (mesh.nelem,):
        raise ValueError(
            f"parts must have one entry per element ({mesh.nelem}), "
            f"got shape {parts.shape}"
        )
    if len(parts) and (parts.min() < 0 or parts.max() >= nranks):
        raise ValueError(f"part ids must lie in [0, {nranks})")
    parts = parts.astype(np.int64)
    conn = mesh.conn.astype(np.int64)

    # the incidence rows, and each element corner's row
    keys, corner_row = np.unique(
        (conn * nranks + parts[:, None]).ravel(), return_inverse=True
    )
    node, part = np.divmod(keys, nranks)
    start = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
    deg = np.diff(np.r_[start, len(keys)])
    row_deg = np.repeat(deg, deg)
    # a row's place among its node's co-owners (0: the lowest owner)
    pos = np.arange(len(keys)) - np.repeat(start, deg)
    # a row's index in its rank's sorted node list
    by_rank = np.argsort(part, kind="stable")
    rank_start = np.r_[0, np.cumsum(np.bincount(part, minlength=nranks))]
    local = np.empty(len(keys), dtype=np.int64)
    local[by_rank] = np.arange(len(keys)) - rank_start[part[by_rank]]

    # interface-first elements: each rank's touching a shared node in
    # ascending id order, then its interior ones
    iface = (row_deg[corner_row] > 1).reshape(-1, 8).any(axis=1)
    elem_order = np.argsort(2 * parts + ~iface, kind="stable")
    elem_start = np.r_[0, np.cumsum(np.bincount(parts, minlength=nranks))]
    n_iface = np.bincount(parts[iface], minlength=nranks)
    local_conn = local[corner_row].reshape(-1, 8)

    # every ordered (rank, co-owner) pair of a shared node: in its
    # node's group, row i meets the row s places further on (cyclic)
    rows_i, rows_j = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for s in range(1, int(deg.max(initial=1))):
        i = np.flatnonzero(row_deg > s)
        rows_i.append(i)
        rows_j.append(i - pos[i] + (pos[i] + s) % row_deg[i])
    i, j = np.concatenate(rows_i), np.concatenate(rows_j)
    pair = part[i] * nranks + part[j]
    order = np.argsort(pair * mesh.nnode + node[i], kind="stable")
    i, pair = i[order], pair[order]
    cut = np.flatnonzero(np.diff(pair, prepend=-1, append=-1))

    shared: list[dict] = [{} for _ in range(nranks)]
    for a, b in zip(cut[:-1], cut[1:]):
        r, o = divmod(int(pair[a]), nranks)
        shared[r][o] = (local[i[a:b]], node[i[a:b]])

    ranks = []
    for r in range(nranks):
        rows = by_rank[rank_start[r]:rank_start[r + 1]]
        eids = elem_order[elem_start[r]:elem_start[r + 1]]
        gather_local = np.flatnonzero(pos[rows] == 0)
        ranks.append(
            RankPartition(
                elements=eids,
                nodes=node[rows],
                local_conn=local_conn[eids],
                shared_with=shared[r],
                n_iface_elems=int(n_iface[r]),
                gather_nodes=node[rows][gather_local],
                gather_local=gather_local,
            )
        )
    return ranks


def step_flops(nelem: int, nnode: int) -> int:
    """Counted work of one every-step leapfrog step (undamped) over
    ``nelem`` hex elements and ``nnode`` grid points: the element
    kernel's count for two 24 x 24 reference matrices per element plus
    :func:`~repro.solver.wave_solver.update_flops_per_node` per node.
    The one formula of :func:`per_step_profile` and the modelled paper
    rows (:func:`repro.parallel.perfmodel.predict_paper_row`)."""
    return nelem * element_flops(2, 24) + update_flops_per_node(False) * nnode


def per_step_profile(ranks: list[RankPartition]) -> list[dict]:
    """Per-rank cost profile of ONE solver step: flops, neighbor count,
    bytes exchanged.  Pure accounting — no execution — used by the
    scalability study at large P."""
    return [
        {
            "flops": step_flops(len(rp.elements), len(rp.nodes)),
            "neighbors": len(rp.shared_with),
            "bytes": sum(
                8 * 3 * len(loc) for (loc, _) in rp.shared_with.values()
            ),
            "elements": len(rp.elements),
            "interface_elements": rp.n_iface_elems,
            "nodes": len(rp.nodes),
        }
        for rp in ranks
    ]
