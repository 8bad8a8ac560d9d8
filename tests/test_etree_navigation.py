"""Auto-navigation construction: chunking invariance and edge cases."""

import numpy as np
import pytest

from repro.etree import EtreeDatabase, OctantRecord, construct_octree
from repro.octree import LinearOctree, pack_key
from repro.octree.linear_octree import expand
from repro.octree.morton import MAX_COORD
from tests.oracles import covered_volume


def in_ball(centers, sizes, levels):
    """Refine inside a ball only: far octants stop at level 1."""
    r = np.linalg.norm(centers - 0.4, axis=1)
    return (r < 0.3) & (sizes > 1.0 / 2**5)


def uniform_then_ball(centers, sizes, levels):
    """Refine everywhere to level 3, then adaptively inside a ball."""
    return (levels < 3) | in_ball(centers, sizes, levels)


def build(tmp_path, name, chunk_level, max_level=5, box_frac=(1, 1, 1),
          decide=uniform_then_ball):
    db = EtreeDatabase(str(tmp_path / f"{name}.etree"))

    def payload(centers, sizes):
        rec = np.zeros(len(centers), dtype=OctantRecord)
        rec["vs"] = 100.0 + 1000.0 * centers[:, 0]
        return rec

    n = construct_octree(
        db, decide, payload, max_level=max_level, box_frac=box_frac,
        chunk_level=chunk_level,
    )
    return db, n


class TestAutoNavigation:
    def test_chunk_level_does_not_change_the_octree(self, tmp_path):
        """The paper's insight: 'the ordering of expanding an octree
        under construction is independent of the correctness of the
        result' — different traversal chunkings give identical trees."""
        trees = {}
        for cl in (1, 2, 3):
            db, n = build(tmp_path, f"c{cl}", cl)
            trees[cl] = db.keys()
            db.close()
        np.testing.assert_array_equal(trees[1], trees[2])
        np.testing.assert_array_equal(trees[2], trees[3])

    def test_payload_deterministic_across_chunkings(self, tmp_path):
        db1, _ = build(tmp_path, "p1", 1)
        db2, _ = build(tmp_path, "p2", 3)
        k1, r1 = db1.scan_arrays()
        k2, r2 = db2.scan_arrays()
        np.testing.assert_array_equal(k1, k2)
        np.testing.assert_array_equal(r1["vs"], r2["vs"])
        db1.close()
        db2.close()

    def test_box_restricted_construction(self, tmp_path):
        db, n = build(tmp_path, "box", 2, box_frac=(1, 1, 0.25))
        tree = LinearOctree(db.keys())
        tree.validate()
        from repro.octree.morton import MAX_COORD

        assert covered_volume(tree) == MAX_COORD**3 // 4
        db.close()

    def test_chunk_level_is_a_traversal_order_only(self, tmp_path):
        """Octants that stop refining above the chunk level are leaves:
        every chunk level streams the in-core expansion's keys."""
        root = np.array([pack_key(np.uint64(0), np.uint64(0))])
        ref = expand(
            root, in_ball, max_level=5, box_ticks=np.full(3, MAX_COORD)
        )
        assert LinearOctree(ref).levels.min() < 2
        for cl in (0, 1, 2, 3):
            db, n = build(tmp_path, f"t{cl}", cl, decide=in_ball)
            np.testing.assert_array_equal(db.keys(), ref)
            assert n == len(ref)
            db.close()

    def test_empty_database_required(self, tmp_path):
        db, _ = build(tmp_path, "full", 2)
        with pytest.raises(ValueError):
            construct_octree(
                db,
                lambda c, s, l: np.zeros(len(c), dtype=bool),
                lambda c, s: np.zeros(len(c), dtype=OctantRecord),
                max_level=3,
            )
        db.close()
