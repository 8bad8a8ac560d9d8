"""The etree mesh-generation pipeline: construct -> balance -> transform
(paper Figure 2.1).

Each stage runs the in-core algorithm of
:class:`repro.core.ForwardSimulation`, so the databases hold exactly
the mesh, and the constraints, the in-core pipeline builds; the etree
adds only the streaming into the B-tree, the block-at-a-time reads and
the element and node databases.

* **construct** builds an unbalanced octree on disk under the one
  refinement rule — the wavelength ``h = vs / (N_lambda * f_max)`` at
  each octant center (:func:`repro.mesh.hexmesh.wavelength_target`),
  floored at the box-alignment level — and stores the material
  properties queried at each octant center.
* **balance** enforces the 2-to-1 constraint with the paper's *local
  balancing* (:func:`repro.octree.balance.balance_blocks`): octants are
  read block by block (each block is a Morton-contiguous range scan),
  balanced internally, then a boundary phase resolves interactions
  between adjacent blocks.  New octants created by splitting inherit
  their ancestor's material record.
* **transform** derives mesh-specific information — the element-node
  relation and the node coordinates (with hanging-node constraints) —
  into two databases, one for elements, one for nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import telemetry
from repro.etree.database import EtreeDatabase, OctantRecord
from repro.etree.navigation import construct_octree
from repro.mesh.hanging import HangingNodeInfo, build_constraints
from repro.mesh.hexmesh import HexMesh, extract_mesh, wavelength_target
from repro.octree.balance import balance_blocks
from repro.octree.linear_octree import (
    LinearOctree,
    _binary_fraction_ticks,
    size_refinement,
)
from repro.octree.morton import MAX_COORD, morton_encode
from repro.octree.octant import octant_anchor

#: element database record: global node ids, material, level
ElementRecord = np.dtype(
    [
        ("nodes", "<u4", (8,)),
        ("vs", "<f4"),
        ("vp", "<f4"),
        ("rho", "<f4"),
        ("level", "<u4"),
    ]
)

#: node database record: lattice coordinates, hanging flag, constraint
NodeRecord = np.dtype(
    [
        ("x", "<u4"),
        ("y", "<u4"),
        ("z", "<u4"),
        ("flags", "<u4"),
        ("masters", "<u4", (8,)),
        ("weights", "<f4", (8,)),
    ]
)

HANGING_FLAG = 1


def construct_step(
    path: str,
    material,
    *,
    L: float,
    fmax: float,
    points_per_wavelength: float = 10.0,
    max_level: int,
    box_frac: Sequence[float] = (1.0, 1.0, 1.0),
    h_min: float = 0.0,
    cache_pages: int = 256,
    chunk_level: int = 2,
) -> EtreeDatabase:
    """Construct the (unbalanced) wavelength-adaptive octant database.

    ``material`` must expose ``query(points_m) -> (vs, vp, rho)`` for
    physical points in meters, vectorized.  The octree is the in-core
    one: :func:`repro.mesh.hexmesh.wavelength_target` at each octant
    center under :func:`repro.octree.linear_octree.size_refinement`.
    """
    db = EtreeDatabase(path, OctantRecord, cache_pages=cache_pages)
    target = wavelength_target(
        lambda pts: material.query(pts)[0],
        L=L,
        fmax=fmax,
        points_per_wavelength=points_per_wavelength,
        h_min=h_min,
    )
    box_ticks = np.array([_binary_fraction_ticks(f) for f in box_frac])

    def payload(centers, sizes):
        vs, vp, rho = material.query(centers * L)
        rec = np.zeros(len(centers), dtype=OctantRecord)
        rec["vs"], rec["vp"], rec["rho"] = vs, vp, rho
        return rec

    construct_octree(
        db,
        size_refinement(target, box_ticks=box_ticks),
        payload,
        max_level=max_level,
        box_frac=box_frac,
        chunk_level=chunk_level,
    )
    return db


def balance_step(
    db: EtreeDatabase,
    path_out: str,
    *,
    blocks_per_axis: int = 4,
    cache_pages: int = 256,
) -> EtreeDatabase:
    """Enforce the 2-to-1 constraint out-of-core via local balancing.

    Blocks are read one at a time through B-tree range scans.  Balancing
    only splits, so each balanced octant lies in exactly one unbalanced
    octant, whose record it inherits.
    """
    if not len(db):
        raise ValueError("octant database is empty")
    keys = balance_blocks(
        lambda lo, hi: db.scan_arrays(int(lo), int(hi))[0], blocks_per_axis
    )
    old_keys, old_recs = db.scan_arrays()
    x, y, z, _ = octant_anchor(keys)
    recs = old_recs[LinearOctree(old_keys).locate(np.stack([x, y, z], axis=1))]
    out_db = EtreeDatabase(path_out, db.dtype, cache_pages=cache_pages)
    out_db.append_sorted(keys, recs)
    out_db.flush()
    return out_db


def transform_step(
    db: EtreeDatabase,
    elem_path: str,
    node_path: str,
    *,
    L: float,
    box_frac: Sequence[float] = (1.0, 1.0, 1.0),
    cache_pages: int = 256,
) -> tuple[EtreeDatabase, EtreeDatabase, HangingNodeInfo]:
    """Derive the element and node databases from the balanced octants;
    also returns the mesh's hanging-node constraints."""
    keys, recs = db.scan_arrays()
    tree = LinearOctree(keys)
    mesh = extract_mesh(tree, L=L, box_frac=box_frac)
    info = build_constraints(tree, mesh)

    # element database, keyed by the octant key
    elem_db = EtreeDatabase(elem_path, ElementRecord, cache_pages=cache_pages)
    erecs = np.zeros(mesh.nelem, dtype=ElementRecord)
    erecs["nodes"] = mesh.conn.astype(np.uint32)
    # scan order of the balanced db matches tree key order == mesh order
    erecs["vs"], erecs["vp"], erecs["rho"] = recs["vs"], recs["vp"], recs["rho"]
    erecs["level"] = mesh.elem_level.astype(np.uint32)
    elem_db.append_sorted(tree.keys, erecs)

    # node database, keyed by the Morton code of the node coordinates
    node_db = EtreeDatabase(node_path, NodeRecord, cache_pages=cache_pages)
    nrecs = np.zeros(mesh.nnode, dtype=NodeRecord)
    nrecs["x"] = mesh.node_ticks[:, 0]
    nrecs["y"] = mesh.node_ticks[:, 1]
    nrecs["z"] = mesh.node_ticks[:, 2]
    nrecs["flags"][info.hanging] = HANGING_FLAG
    for i, stencil in info.masters.items():
        if len(stencil) > 8:
            raise ValueError(
                f"hanging node {i} has {len(stencil)} masters; record holds 8"
            )
        for j, (node, w) in enumerate(stencil.items()):
            nrecs["masters"][i, j] = node
            nrecs["weights"][i, j] = w
    node_codes = morton_encode(
        mesh.node_ticks[:, 0], mesh.node_ticks[:, 1], mesh.node_ticks[:, 2]
    )
    order = np.argsort(node_codes)
    node_db.append_sorted(node_codes[order], nrecs[order])
    elem_db.flush()
    node_db.flush()
    return elem_db, node_db, info


def load_mesh_from_databases(
    elem_path: str,
    node_path: str,
    *,
    L: float,
    box_frac: Sequence[float] = (1.0, 1.0, 1.0),
    cache_pages: int = 256,
):
    """Rebuild a solver-ready mesh from the element and node databases.

    This is the paper's production workflow: "each basin is meshed just
    once for a given resolution of interest — but subjected to many
    earthquake scenarios", so simulations start from the databases, not
    from re-meshing.  Returns ``(mesh, tree, constraints, materials)``
    with ``materials = (vs, vp, rho)`` per element, ready for
    :class:`repro.solver.ElasticWaveSolver`.
    """
    with EtreeDatabase(elem_path, ElementRecord, cache_pages=cache_pages) as edb:
        keys, erecs = edb.scan_arrays()
    with EtreeDatabase(node_path, NodeRecord, cache_pages=cache_pages) as ndb:
        node_codes, nrecs = ndb.scan_arrays()

    tree = LinearOctree(keys)
    # node records are stored in Morton order of their coordinates; the
    # element records reference node indices in extraction order, which
    # is the same Morton order (transform_step sorts before writing)
    order = np.argsort(node_codes)
    if not np.array_equal(order, np.arange(len(order))):
        raise ValueError("node database is not Morton-sorted")
    node_ticks = np.stack(
        [nrecs["x"], nrecs["y"], nrecs["z"]], axis=1
    ).astype(np.int64)
    conn = erecs["nodes"].astype(np.int64)
    box_ticks = np.array([_binary_fraction_ticks(f) for f in box_frac])
    mesh = HexMesh(
        conn=conn,
        node_ticks=node_ticks,
        elem_anchor=tree.anchors.copy(),
        elem_size=tree.sizes.copy(),
        elem_level=tree.levels.copy(),
        L=float(L),
        box_ticks=box_ticks,
    )
    hanging = (nrecs["flags"] & HANGING_FLAG) > 0
    masters: dict[int, dict[int, float]] = {}
    for i in np.nonzero(hanging)[0]:
        st = {}
        for node, w in zip(nrecs["masters"][i], nrecs["weights"][i]):
            if w != 0.0:
                st[int(node)] = float(w)
        masters[int(i)] = st
    constraints = HangingNodeInfo.from_masters(hanging, masters)
    materials = (
        erecs["vs"].astype(float),
        erecs["vp"].astype(float),
        erecs["rho"].astype(float),
    )
    return mesh, tree, constraints, materials


class DatabaseMaterial:
    """Adapter: per-element properties from the database, served through
    the ``query(points)`` protocol by octree point location."""

    def __init__(self, tree, mesh, vs, vp, rho):
        self.tree = tree
        self.mesh = mesh
        self.vs = np.asarray(vs, dtype=float)
        self.vp = np.asarray(vp, dtype=float)
        self.rho = np.asarray(rho, dtype=float)

    def query(self, points: np.ndarray):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tol = 1e-9 * self.mesh.L
        if np.any(pts < -tol) or np.any(pts > self.mesh.L + tol):
            raise ValueError("query point outside the meshed box")
        ticks = np.clip(
            (pts / self.mesh.L * MAX_COORD).astype(np.int64),
            0,
            MAX_COORD - 1,
        )
        idx = self.tree.locate(ticks)
        if np.any(idx < 0):
            raise ValueError("query point outside the meshed box")
        return self.vs[idx], self.vp[idx], self.rho[idx]


@dataclass
class MeshDatabases:
    """Outputs and accounting of a full etree pipeline run."""

    octant_path: str
    balanced_path: str
    element_path: str
    node_path: str
    n_octants_unbalanced: int
    n_elements: int
    n_nodes: int
    n_hanging: int
    construct_seconds: float
    balance_seconds: float
    transform_seconds: float
    io_stats: dict = field(default_factory=dict)


def generate_mesh_database(
    workdir: str,
    material,
    *,
    L: float,
    fmax: float,
    points_per_wavelength: float = 10.0,
    max_level: int,
    box_frac: Sequence[float] = (1.0, 1.0, 1.0),
    h_min: float = 0.0,
    blocks_per_axis: int = 4,
    cache_pages: int = 256,
) -> MeshDatabases:
    """Run construct -> balance -> transform and report the accounting
    that Figure 2.1's benchmark prints."""
    import os

    os.makedirs(workdir, exist_ok=True)
    p_oct = os.path.join(workdir, "octants.etree")
    p_bal = os.path.join(workdir, "balanced.etree")
    p_elem = os.path.join(workdir, "elements.etree")
    p_node = os.path.join(workdir, "nodes.etree")
    for p in (p_oct, p_bal, p_elem, p_node):
        if os.path.exists(p):
            os.remove(p)

    t0 = time.perf_counter()
    with telemetry.span("mesh.construct"):
        oct_db = construct_step(
            p_oct,
            material,
            L=L,
            fmax=fmax,
            points_per_wavelength=points_per_wavelength,
            max_level=max_level,
            box_frac=box_frac,
            h_min=h_min,
            cache_pages=cache_pages,
        )
    t1 = time.perf_counter()
    with telemetry.span("mesh.balance"):
        bal_db = balance_step(
            oct_db, p_bal, blocks_per_axis=blocks_per_axis,
            cache_pages=cache_pages,
        )
    t2 = time.perf_counter()
    with telemetry.span("mesh.transform"):
        elem_db, node_db, info = transform_step(
            bal_db, p_elem, p_node, L=L, box_frac=box_frac,
            cache_pages=cache_pages,
        )
    t3 = time.perf_counter()

    n_unbal = len(oct_db)
    n_elem = len(elem_db)
    n_node = len(node_db)
    stats = {
        "octants": oct_db.io_stats,
        "balanced": bal_db.io_stats,
        "elements": elem_db.io_stats,
        "nodes": node_db.io_stats,
    }
    oct_db.close()
    bal_db.close()
    elem_db.close()
    node_db.close()
    return MeshDatabases(
        octant_path=p_oct,
        balanced_path=p_bal,
        element_path=p_elem,
        node_path=p_node,
        n_octants_unbalanced=n_unbal,
        n_elements=n_elem,
        n_nodes=n_node,
        n_hanging=info.n_hanging,
        construct_seconds=t1 - t0,
        balance_seconds=t2 - t1,
        transform_seconds=t3 - t2,
        io_stats=stats,
    )
