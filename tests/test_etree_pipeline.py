"""Tests for the etree database layer and the mesh-generation pipeline."""

import numpy as np
import pytest

from repro.etree import (
    EtreeDatabase,
    OctantRecord,
    construct_octree,
    generate_mesh_database,
)
from repro.etree.pipeline import HANGING_FLAG, balance_step, construct_step
from repro.octree import LinearOctree, is_balanced, balance_octree
from tests.oracles import covered_volume


class TwoSpeedMaterial:
    """Fast halfspace with a slow box in one corner: forces refinement
    with a genuine 2-to-1 violation at the box faces."""

    def __init__(self, vs_slow=200.0, vs_fast=800.0, scale=1.0):
        self.vs_slow = vs_slow
        self.vs_fast = vs_fast
        self.scale = scale

    def query(self, pts):
        pts = np.asarray(pts, dtype=float)
        # boundary on a coarse octant face (x = L/4) so the slow box
        # refines deeply right up against coarse fast octants
        slow = np.all(pts < 0.25 * self.scale, axis=1)
        vs = np.where(slow, self.vs_slow, self.vs_fast)
        return vs, 2.0 * vs, np.full(len(pts), 2000.0)


class TestEtreeDatabase:
    def test_insert_get_typed(self, tmp_path):
        with EtreeDatabase(str(tmp_path / "db.etree")) as db:
            db.insert(5, (100.0, 200.0, 1500.0, 0))
            rec = db.get(5)
            assert rec["vs"] == 100.0
            assert rec["rho"] == 1500.0
            assert db.get(6) is None

    def test_scan_arrays_roundtrip(self, tmp_path):
        with EtreeDatabase(str(tmp_path / "db.etree")) as db:
            keys = np.arange(10, 50, 2, dtype=np.uint64)
            recs = np.zeros(len(keys), dtype=OctantRecord)
            recs["vs"] = np.arange(len(keys), dtype=np.float32)
            db.append_sorted(keys, recs)
            k2, r2 = db.scan_arrays(14, 30)
            np.testing.assert_array_equal(k2, np.arange(14, 30, 2))
            np.testing.assert_array_equal(r2["vs"], np.arange(2, 10))

    def test_io_stats_exposed(self, tmp_path):
        with EtreeDatabase(str(tmp_path / "db.etree"), cache_pages=4) as db:
            for k in range(500):
                db.insert(k, (1.0, 2.0, 3.0, 0))
            stats = db.io_stats
            assert stats["page_writes"] > 0


class TestConstructOctree:
    def _build(self, tmp_path, max_level=4):
        db = EtreeDatabase(str(tmp_path / "oct.etree"))
        mat = TwoSpeedMaterial()

        def decide(centers, sizes, levels):
            vs, _, _ = mat.query(centers)
            return sizes > vs / 2000.0

        def payload(centers, sizes):
            vs, vp, rho = mat.query(centers)
            rec = np.zeros(len(centers), dtype=OctantRecord)
            rec["vs"], rec["vp"], rec["rho"] = vs, vp, rho
            return rec

        n = construct_octree(db, decide, payload, max_level=max_level)
        return db, n

    def test_construct_writes_leaves_in_order(self, tmp_path):
        db, n = self._build(tmp_path)
        assert n == len(db) > 64
        keys = db.keys()
        assert np.all(keys[1:] > keys[:-1])
        LinearOctree(keys).validate()
        db.close()

    def test_construct_tiles_domain(self, tmp_path):
        db, _ = self._build(tmp_path)
        tree = LinearOctree(db.keys())
        from repro.octree.morton import MAX_COORD

        assert covered_volume(tree) == MAX_COORD**3
        db.close()

    def test_payload_matches_material(self, tmp_path):
        db, _ = self._build(tmp_path)
        # the slow corner must hold slow-material records at fine levels
        from repro.octree.morton import MAX_COORD
        from repro.octree.octant import octant_anchor

        keys = db.keys()
        x, y, z, lvl = octant_anchor(keys)
        corner = (x < MAX_COORD // 8) & (y < MAX_COORD // 8) & (z < MAX_COORD // 8)
        for k in keys[corner][:5]:
            assert db.get(int(k))["vs"] == 200.0
        db.close()


class TestPipeline:
    def test_balance_step_produces_balanced_db(self, tmp_path):
        mat = TwoSpeedMaterial(vs_slow=100.0, vs_fast=1600.0, scale=1000.0)
        db = construct_step(
            str(tmp_path / "oct.etree"),
            mat,
            L=1000.0,
            fmax=1.0,
            points_per_wavelength=10.0,
            max_level=5,
        )
        tree_unbal = LinearOctree(db.keys())
        assert not is_balanced(tree_unbal)
        out = balance_step(db, str(tmp_path / "bal.etree"), blocks_per_axis=2)
        tree = LinearOctree(out.keys())
        tree.validate()
        assert is_balanced(tree)
        # identical to the in-core global algorithm
        assert tree == balance_octree(tree_unbal)
        # every record present, inherited where split
        for k in out.keys()[:20]:
            assert out.get(int(k)) is not None
        db.close()
        out.close()

    def test_full_pipeline(self, tmp_path):
        mat = TwoSpeedMaterial(vs_slow=100.0, vs_fast=1600.0, scale=1000.0)
        result = generate_mesh_database(
            str(tmp_path / "mesh"),
            mat,
            L=1000.0,
            fmax=1.0,
            max_level=5,
            blocks_per_axis=2,
        )
        assert result.n_elements >= result.n_octants_unbalanced
        assert result.n_nodes > result.n_elements  # hex meshes: more nodes
        assert result.n_hanging > 0
        assert result.construct_seconds > 0
        # element db is replayable into a consistent mesh
        from repro.etree.pipeline import ElementRecord, NodeRecord

        with EtreeDatabase(result.element_path, ElementRecord) as edb:
            assert len(edb) == result.n_elements
            _, recs = edb.scan_arrays()
            assert recs["nodes"].max() < result.n_nodes
            assert np.all(recs["vs"] > 0)
        with EtreeDatabase(result.node_path, NodeRecord) as ndb:
            assert len(ndb) == result.n_nodes
            _, nrecs = ndb.scan_arrays()
            hang = (nrecs["flags"] & HANGING_FLAG) > 0
            assert int(hang.sum()) == result.n_hanging
            # hanging nodes carry normalized constraint weights
            w = nrecs["weights"][hang].sum(axis=1)
            np.testing.assert_allclose(w, 1.0, atol=1e-6)
