"""Distributed element-based matvec over a pluggable communicator.

Elements are partitioned across ranks (ParMETIS in the paper, RCB
here); each rank owns its elements and a local copy of every grid point
they touch.  A stiffness application is then

1. local gather / dense element products / local scatter (the serial
   :class:`repro.fem.assembly.ElasticOperator` on the rank's elements);
2. **interface exchange**: grid points shared between ranks hold only
   partial sums, so each rank sends its partials on shared nodes to the
   co-owning ranks and accumulates what it receives.

To let step 2 hide behind step 1 — the classic bulk-synchronous
comm/compute overlap the paper's machine model assumes — each rank's
elements are ordered **interface first**: the elements touching any
shared grid point form a prefix, the per-rank operator is built with
the matching ``split_elems``, and its planned-CSR scatter is split
along the same boundary (:meth:`repro.backend.sparse_ops.ScatterPlan.
split`).  A time step then applies the interface elements, ships the
boundary partial sums, and runs the interior elements while the
messages are in flight.

The exchange executes through :class:`repro.parallel.simcomm.SimComm`
endpoints over either transport (in-process mailboxes or the real
shared-memory process transport), so message counts and byte volumes
are measured, not estimated — they drive the Table 2.1 machine model.
The assembled result is verified against the serial operator in the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.fem.assembly import ElasticOperator
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


class DistributedElasticOperator:
    """Element partition + per-rank operators + ghost exchange."""

    def __init__(
        self,
        mesh: HexMesh,
        lam: np.ndarray,
        mu: np.ndarray,
        parts: np.ndarray,
        world,
    ):
        self.mesh = mesh
        self.world = world
        nranks = world.nranks
        parts = np.asarray(parts)
        if parts.max() >= nranks:
            raise ValueError("partition refers to more ranks than the world")
        self.parts = parts
        self._lam = np.asarray(lam)
        self._mu = np.asarray(mu)
        self.ranks: list[RankPartition] = []

        # (node, part) incidence, deduplicated; rows sort by node then
        # part, so the first row of each node names its lowest owner
        pairs = np.unique(
            np.stack([mesh.conn.ravel(), np.repeat(parts, 8)], axis=1),
            axis=0,
        )
        node_deg = np.bincount(pairs[:, 0], minlength=mesh.nnode)
        first = np.unique(pairs[:, 0], return_index=True)[1]
        min_owner = np.full(mesh.nnode, -1, dtype=np.int64)
        min_owner[pairs[first, 0]] = pairs[first, 1]

        rank_eids = [np.nonzero(parts == r)[0] for r in range(nranks)]
        rank_nodes = [
            np.unique(mesh.conn[eids].ravel())
            if len(eids)
            else np.array([], dtype=np.int64)
            for eids in rank_eids
        ]

        for r in range(nranks):
            eids = rank_eids[r]
            gnodes = rank_nodes[r]
            local_conn = (
                np.searchsorted(gnodes, mesh.conn[eids])
                if len(eids)
                else np.zeros((0, 8), dtype=np.int64)
            )
            # neighbors: ranks sharing at least one grid point
            shared: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            for o in range(nranks):
                if o == r:
                    continue
                inter = np.intersect1d(
                    gnodes, rank_nodes[o], assume_unique=True
                )
                if len(inter):
                    shared[o] = (np.searchsorted(gnodes, inter), inter)
            # interface-first element ordering
            iface_flag = node_deg[gnodes] > 1
            if len(eids):
                emask = iface_flag[local_conn].any(axis=1)
                order = np.concatenate(
                    [np.nonzero(emask)[0], np.nonzero(~emask)[0]]
                )
                eids = eids[order]
                local_conn = local_conn[order]
                n_iface = int(emask.sum())
            else:
                n_iface = 0
            gather_local = np.nonzero(min_owner[gnodes] == r)[0]
            self.ranks.append(
                RankPartition(
                    elements=eids,
                    nodes=gnodes,
                    local_conn=local_conn,
                    shared_with=shared,
                    n_iface_elems=n_iface,
                    gather_nodes=gnodes[gather_local],
                    gather_local=gather_local,
                )
            )

    @cached_property
    def ops(self) -> list[ElasticOperator]:
        """One interface-first split operator per rank, built on first
        use: :meth:`matvec_distributed` and :meth:`per_step_profile`
        run them in the master; a distributed time march never does
        (each rank program builds its own from its payload)."""
        return [
            ElasticOperator(
                rp.local_conn,
                self.mesh.elem_h[rp.elements],
                self._lam[rp.elements],
                self._mu[rp.elements],
                len(rp.nodes),
                split_elems=rp.n_iface_elems,
            )
            for rp in self.ranks
        ]

    # ------------------------------------------------------------ actions

    def scatter_field(self, u: np.ndarray) -> list[np.ndarray]:
        """Distribute a global nodal field to per-rank local copies."""
        return [u[rp.nodes] for rp in self.ranks]

    def gather_field(
        self, locals_u: list[np.ndarray], out: np.ndarray | None = None
    ) -> np.ndarray:
        """Assemble per-rank local fields into a global vector; each
        grid point is written by its lowest co-owner (deterministic
        regardless of rank execution order)."""
        if out is None:
            out = np.zeros((self.mesh.nnode,) + locals_u[0].shape[1:])
        for rp, u in zip(self.ranks, locals_u):
            out[rp.gather_nodes] = u[rp.gather_local]
        return out

    def matvec_distributed(self, u: np.ndarray) -> np.ndarray:
        """Full distributed stiffness application, returning the
        assembled global result (for verification and driving).
        Executes the overlapped schedule: interface elements, sends,
        interior elements, receives."""
        locals_u = self.scatter_field(u)
        comms = self.world.comms()
        partials = []
        for r, (rp, op) in enumerate(zip(self.ranks, self.ops)):
            y = np.empty((len(rp.nodes), 3))
            op.matvec_interface(locals_u[r], y)
            self.world.stats[r].flops += op.flops_per_matvec
            partials.append(y)
        # post all boundary sends (BSP superstep)
        for r, rp in enumerate(self.ranks):
            for o, (loc, _) in rp.shared_with.items():
                comms[r].Send(partials[r][loc], o, tag=r)
        # overlap region: interior work while messages are in flight
        for r, (rp, op) in enumerate(zip(self.ranks, self.ops)):
            op.matvec_interior_acc(locals_u[r], partials[r])
        # receive and accumulate
        for r, rp in enumerate(self.ranks):
            for o, (loc, _) in rp.shared_with.items():
                incoming = comms[r].Recv(o, tag=o)
                partials[r][loc] += incoming
                self.world.stats[r].flops += incoming.size
        return self.gather_field(partials)

    # --------------------------------------------------------- accounting

    def per_step_profile(self) -> list[dict]:
        """Per-rank cost profile of ONE stiffness application:
        flops, neighbor count, bytes exchanged.  Pure accounting — no
        execution — used by the scalability study at large P."""
        profile = []
        for rp, op in zip(self.ranks, self.ops):
            bytes_out = sum(
                8 * 3 * len(loc) for (loc, _) in rp.shared_with.values()
            )
            profile.append(
                {
                    "flops": op.flops_per_matvec
                    + update_flops_per_node(False) * len(rp.nodes),
                    "neighbors": len(rp.shared_with),
                    "bytes": bytes_out,
                    "elements": len(rp.elements),
                    "interface_elements": rp.n_iface_elems,
                    "nodes": len(rp.nodes),
                }
            )
        return profile
