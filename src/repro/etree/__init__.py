"""The etree method: database-oriented out-of-core octree mesh generation
(paper Section 2.3, Tu, O'Hallaron & Lopez [37]).

Octants are addressed by linear-octree keys (Morton code + level) and
stored in an on-disk **B-tree** — "the most commonly used primary key
indexing structure in database systems".  Two higher-level abstractions
support mesh generation:

* **auto-navigation** (:mod:`repro.etree.navigation`): the octree
  traversal logic is decoupled from the application's refine/coarsen
  decision, so a mesh is constructed by a single callback without the
  application tracking which octants were decomposed;
* **local balancing** (:func:`repro.etree.pipeline.balance_step`): the
  domain is partitioned into blocks that are balanced internally and
  then reconciled along boundaries, keeping the working set small.

Both run the in-core octree algorithms (:mod:`repro.octree`), so the
etree builds the same mesh as the in-core pipeline.

The full pipeline (Figure 2.1) is **construct -> balance -> transform**;
the transform step derives the element-node relation and node
coordinates into two databases, one for elements, one for nodes.
"""

from repro.etree.btree import BTree
from repro.etree.database import EtreeDatabase, OctantRecord
from repro.etree.navigation import construct_octree
from repro.etree.pipeline import (
    DatabaseMaterial,
    MeshDatabases,
    balance_step,
    construct_step,
    generate_mesh_database,
    load_mesh_from_databases,
    transform_step,
)

__all__ = [
    "BTree",
    "EtreeDatabase",
    "OctantRecord",
    "construct_octree",
    "construct_step",
    "balance_step",
    "transform_step",
    "generate_mesh_database",
    "load_mesh_from_databases",
    "DatabaseMaterial",
    "MeshDatabases",
]
