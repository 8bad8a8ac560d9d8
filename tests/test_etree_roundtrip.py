"""End-to-end: mesh databases -> solver (the paper's production loop).

The basin is meshed once into element/node databases; simulations are
then driven straight from the databases.  These tests check that the
reconstructed mesh/constraints are identical to the in-core pipeline
(:class:`ForwardSimulation`'s) and that the solver runs on them.
"""

import numpy as np
import pytest

from repro.core import ForwardSimulation
from repro.etree import (
    DatabaseMaterial,
    generate_mesh_database,
    load_mesh_from_databases,
)
from repro.materials import SyntheticBasinModel
from repro.mesh import build_constraints, extract_mesh
from repro.octree import LinearOctree
from repro.solver import ElasticWaveSolver
from repro.sources import MomentTensorSource
from repro.sources.fault import SourceCollection


class SlabMaterial:
    """Soft slab over stiff halfspace with the interface on an octant
    face, guaranteeing hanging nodes after balancing."""

    def query(self, pts):
        pts = np.asarray(pts, dtype=float)
        soft = np.all(pts < 250.0, axis=1)
        vs = np.where(soft, 100.0, 1600.0)
        return vs, 2.0 * vs, np.full(len(pts), 2000.0)


@pytest.fixture(scope="module")
def dbs(tmp_path_factory):
    d = tmp_path_factory.mktemp("meshdb")
    return generate_mesh_database(
        str(d),
        SlabMaterial(),
        L=1000.0,
        fmax=1.0,
        max_level=5,
        blocks_per_axis=2,
    )


def assert_is_forward_simulation_mesh(loaded, sim):
    mesh, tree, constraints, _ = loaded
    np.testing.assert_array_equal(tree.keys, sim.tree.keys)
    np.testing.assert_array_equal(mesh.conn, sim.mesh.conn)
    np.testing.assert_array_equal(mesh.node_ticks, sim.mesh.node_ticks)
    assert (constraints.B != sim.constraints.B).nnz == 0


def test_roundtrip_matches_in_core(dbs):
    loaded = load_mesh_from_databases(dbs.element_path, dbs.node_path, L=1000.0)
    mesh, tree, constraints, (vs, vp, rho) = loaded
    assert mesh.nelem == dbs.n_elements
    assert mesh.nnode == dbs.n_nodes
    assert constraints.n_hanging == dbs.n_hanging
    # geometry identical to re-extracting from the octree
    mesh2 = extract_mesh(tree, L=1000.0)
    np.testing.assert_array_equal(mesh.node_ticks, mesh2.node_ticks)
    np.testing.assert_array_equal(mesh.conn, mesh2.conn)
    # constraint matrix identical to rebuilding in core
    info2 = build_constraints(tree, mesh2)
    assert (constraints.B != info2.B).nnz == 0
    # materials follow the model
    assert set(np.round(np.unique(vs)).astype(int)) <= {100, 1600}
    sim = ForwardSimulation(SlabMaterial(), L=1000.0, fmax=1.0, max_level=5)
    assert_is_forward_simulation_mesh(loaded, sim)


@pytest.mark.parametrize(
    "fmax, max_level, box_frac",
    [
        (0.8, 6, (1, 1, 0.5)),  # perfbench basin_forward: 19,261 elements
        (0.08, 4, (1, 1, 1)),  # level-1 leaves, coarser than the chunks
    ],
)
def test_database_mesh_is_the_forward_simulation_mesh(
    tmp_path, fmax, max_level, box_frac
):
    """`repro mesh` and `repro forward` mesh a basin identically: the
    etree stages run the in-core refinement rule and balance."""
    L = 8000.0
    mat = SyntheticBasinModel(L=L, depth=box_frac[2] * L, vs_min=400.0)
    kw = dict(L=L, fmax=fmax, max_level=max_level, box_frac=box_frac)
    dbs = generate_mesh_database(str(tmp_path), mat, **kw)
    loaded = load_mesh_from_databases(
        dbs.element_path, dbs.node_path, L=L, box_frac=box_frac
    )
    sim = ForwardSimulation(mat, **kw)
    assert_is_forward_simulation_mesh(loaded, sim)
    assert dbs.n_hanging == sim.constraints.n_hanging


def test_database_material_adapter(dbs):
    mesh, tree, constraints, mats = load_mesh_from_databases(
        dbs.element_path, dbs.node_path, L=1000.0
    )
    mat = DatabaseMaterial(tree, mesh, *mats)
    vs, vp, rho = mat.query(np.array([[50.0, 50.0, 50.0], [800.0, 800.0, 800.0]]))
    assert vs[0] == pytest.approx(100.0)
    assert vs[1] == pytest.approx(1600.0)
    with pytest.raises(ValueError):
        mat.query(np.array([[2000.0, 0.0, 0.0]]))


def test_solver_runs_from_databases(dbs):
    mesh, tree, constraints, mats = load_mesh_from_databases(
        dbs.element_path, dbs.node_path, L=1000.0
    )
    mat = DatabaseMaterial(tree, mesh, *mats)
    solver = ElasticWaveSolver(
        mesh, tree, mat, constraints=constraints, stacey_c1=False
    )
    src = MomentTensorSource(
        position=np.array([501.0, 501.0, 501.0]),
        moment=1e10 * np.eye(3),
        T=0.02,
        t0=0.1,
    )
    forces = SourceCollection(mesh, tree, [src])
    out = {}
    solver.run(
        forces, 20 * solver.dt,
        callback=lambda k, t, u: out.__setitem__("u", u),
    )
    assert np.isfinite(out["u"]).all()
    assert np.abs(out["u"]).max() > 0
