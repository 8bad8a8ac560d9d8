"""Remaining edge-case coverage across packages."""

import numpy as np
import pytest

from repro.core import ForwardSimulation
from repro.etree import EtreeDatabase
from repro.materials import HomogeneousMaterial
from repro.mesh import uniform_hex_mesh
from repro.octree import MAX_COORD, MAX_LEVEL, build_adaptive_octree
from repro.octree.linear_octree import LinearOctree
from repro.solver import RegularGridScalarWave
from tests.oracles import covered_volume


class TestOctreeEdges:
    def test_single_leaf_root_tree(self):
        t = build_adaptive_octree(lambda c, s: np.full(len(c), 2.0), max_level=3)
        assert len(t) == 1
        assert int(t.levels[0]) == 0
        assert covered_volume(t) == MAX_COORD**3
        idx = t.locate(np.array([[5, 5, 5]]))
        assert idx[0] == 0

    def test_empty_linear_octree(self):
        t = LinearOctree(np.array([], dtype=np.uint64))
        t.validate()
        assert len(t) == 0
        assert covered_volume(t) == 0

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValueError):
            build_adaptive_octree(
                lambda c, s: np.full(len(c), 1.0), max_level=MAX_LEVEL + 1
            )
        with pytest.raises(ValueError):
            build_adaptive_octree(
                lambda c, s: np.full(len(c), 1.0), max_level=2, min_level=3
            )


class TestEtreeDatabaseEdges:
    def test_dtype_mismatch_on_reopen(self, tmp_path):
        p = str(tmp_path / "d.etree")
        db = EtreeDatabase(p)  # 16-byte OctantRecord
        db.insert(1, (1.0, 2.0, 3.0, 0))
        db.close()
        with pytest.raises(ValueError):
            EtreeDatabase(p, np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8")]))

    def test_scan_arrays_empty_range(self, tmp_path):
        with EtreeDatabase(str(tmp_path / "e.etree")) as db:
            db.insert(100, (1.0, 2.0, 3.0, 0))
            keys, recs = db.scan_arrays(0, 50)
            assert len(keys) == 0
            assert len(recs) == 0

    def test_delete_through_database(self, tmp_path):
        with EtreeDatabase(str(tmp_path / "f.etree")) as db:
            db.insert(7, (1.0, 2.0, 3.0, 0))
            assert db.delete(7)
            assert not db.delete(7)
            assert 7 not in db


class TestScalarWaveEdges:
    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError):
            RegularGridScalarWave((8,), 1.0, 1000.0)

    def test_node_index_out_of_range(self):
        s = RegularGridScalarWave((4, 4), 1.0, 1000.0)
        with pytest.raises(ValueError):
            s.node_index((10, 0))

    def test_elem_centers_inside_box(self):
        s = RegularGridScalarWave((5, 3), 2.0, 1000.0)
        c = s.elem_centers()
        assert c[:, 0].max() < 10.0 and c[:, 1].max() < 6.0
        assert c.min() > 0.0


class TestForwardSimulationEdges:
    def test_default_damping_band_scales_with_fmax(self):
        mat = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
        sim = ForwardSimulation(
            mat, L=2000.0, fmax=2.0, max_level=3, h_min=500.0,
            damping_ratio=0.05,
        )
        # Rayleigh coefficients were fit (band defaulted to fmax-scaled)
        assert sim.solver.beta > 0
        assert sim.solver.m_alpha.max() > 0

    def test_run_without_receivers_returns_no_seismograms(self):
        from repro.sources import idealized_strike_slip

        mat = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
        sim = ForwardSimulation(mat, L=2000.0, fmax=1.0, max_level=3,
                                h_min=500.0)
        sc = idealized_strike_slip(L=2000.0, n_strike=2, n_dip=1)
        result = sim.run(sc, t_end=4 * sim.dt)
        assert result.seismograms is None


class TestMeshEdges:
    def test_uniform_hex_mesh_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            uniform_hex_mesh(5)

    def test_boundary_faces_empty_on_interior_query(self):
        mesh = uniform_hex_mesh(2, L=1.0)
        # every element touches some boundary on a 2x2x2 mesh; check
        # counts are exactly one face layer per side
        for axis in range(3):
            for side in (0, 1):
                idx, faces = mesh.boundary_faces(axis, side)
                assert len(idx) == 4
