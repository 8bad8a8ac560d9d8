"""Mesh extraction and partitioning.

Turns balanced linear octrees into hexahedral finite element meshes
(the paper's "transform" step): global node numbering, detection of
*hanging* grid points on 2-to-1 refinement interfaces together with the
sparse constraint matrix ``B`` (paper eq. u = B ubar), boundary face
extraction for free-surface/absorbing boundaries, a tetrahedral baseline
mesh (the group's earlier code), and the RCB element partitioner
standing in for ParMETIS.
"""

from repro.mesh.hexmesh import (
    HexMesh,
    estimate_mesh_size,
    extract_mesh,
    uniform_hex_mesh,
    wavelength_target,
)
from repro.mesh.hanging import HangingNodeInfo, build_constraints
from repro.mesh.tetmesh import TetMesh, hex_to_tet_mesh
from repro.mesh.partition import (
    partition_metrics,
    rcb_partition,
)

__all__ = [
    "HexMesh",
    "estimate_mesh_size",
    "extract_mesh",
    "uniform_hex_mesh",
    "wavelength_target",
    "HangingNodeInfo",
    "build_constraints",
    "TetMesh",
    "hex_to_tet_mesh",
    "rcb_partition",
    "partition_metrics",
]
