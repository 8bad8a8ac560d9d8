"""Tests for linear octrees, adaptive construction, and 2-to-1 balancing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octree import (
    MAX_COORD,
    LinearOctree,
    balance_octree,
    build_adaptive_octree,
    is_balanced,
    local_balance_octree,
    morton_encode,
    octant_children,
    pack_key,
)
from tests.oracles import covered_volume


def uniform_tree(level: int) -> LinearOctree:
    keys = np.array([pack_key(np.uint64(0), np.uint64(0))], dtype=np.uint64)
    for _ in range(level):
        keys = octant_children(keys).ravel()
    return LinearOctree(keys)


def graded_tree(seed: int = 0, n_refine: int = 30, max_level: int = 5) -> LinearOctree:
    """Randomly refined (unbalanced) tree for property tests."""
    rng = np.random.default_rng(seed)
    keys = list(octant_children(pack_key(np.uint64(0), np.uint64(0))).ravel())
    for _ in range(n_refine):
        i = rng.integers(len(keys))
        k = keys[i]
        from repro.octree import unpack_key

        _, lvl = unpack_key(k)
        if int(lvl) >= max_level:
            continue
        keys.pop(i)
        keys.extend(octant_children(k).ravel())
    return LinearOctree(np.array(keys, dtype=np.uint64))


class TestLinearOctree:
    def test_uniform_tree_covers_domain(self):
        t = uniform_tree(3)
        assert len(t) == 8**3
        t.validate()
        assert covered_volume(t) == MAX_COORD**3

    def test_locate_uniform(self):
        t = uniform_tree(2)
        size = MAX_COORD // 4
        pts = np.array([[0, 0, 0], [size, 0, 0], [MAX_COORD - 1] * 3])
        idx = t.locate(pts)
        assert np.all(idx >= 0)
        np.testing.assert_array_equal(t.anchors[idx[0]], [0, 0, 0])
        np.testing.assert_array_equal(t.anchors[idx[1]], [size, 0, 0])

    def test_locate_outside_domain(self):
        t = uniform_tree(1)
        idx = t.locate(np.array([[-1, 0, 0], [0, MAX_COORD, 0]]))
        assert np.all(idx == -1)

    def test_locate_respects_leaf_extents(self):
        t = graded_tree(3)
        rng = np.random.default_rng(1)
        pts = rng.integers(0, MAX_COORD, size=(500, 3))
        idx = t.locate(pts)
        assert np.all(idx >= 0)
        rel = pts - t.anchors[idx]
        assert np.all(rel >= 0)
        assert np.all(rel < t.sizes[idx][:, None])

    def test_validate_rejects_duplicates(self):
        k = pack_key(morton_encode(0, 0, 0), 1)
        with pytest.raises(ValueError):
            LinearOctree(np.array([k, k], dtype=np.uint64)).validate()

    def test_validate_rejects_overlap(self):
        root = pack_key(np.uint64(0), np.uint64(0))
        child = octant_children(root).ravel()[0]
        with pytest.raises(ValueError):
            LinearOctree(np.array([root, child], dtype=np.uint64)).validate()


class TestAdaptiveConstruction:
    def test_uniform_target_gives_uniform_tree(self):
        t = build_adaptive_octree(
            lambda c, s: np.full(len(c), 0.25), max_level=6
        )
        assert len(t) == 4**3
        assert np.all(t.levels == 2)

    def test_spatially_varying_target(self):
        # fine near x=0, coarse elsewhere
        def target(c, s):
            return np.where(c[:, 0] < 0.25, 1 / 16, 1 / 4)

        t = build_adaptive_octree(target, max_level=6)
        t.validate()
        fine = t.levels[t.anchors[:, 0] < MAX_COORD // 4]
        coarse = t.levels[t.anchors[:, 0] >= MAX_COORD // 4]
        assert np.all(fine == 4)
        assert np.all(coarse == 2)

    def test_max_level_caps_refinement(self):
        t = build_adaptive_octree(lambda c, s: np.full(len(c), 1e-9), max_level=3)
        assert np.all(t.levels == 3)

    def test_box_fraction_tiles_box_only(self):
        t = build_adaptive_octree(
            lambda c, s: np.full(len(c), 0.25), max_level=6, box_frac=(1, 1, 0.5)
        )
        t.validate()
        assert covered_volume(t) == MAX_COORD**3 // 2
        assert np.all(t.anchors[:, 2] + t.sizes <= MAX_COORD // 2)

    def test_box_fraction_three_eighths(self):
        t = build_adaptive_octree(
            lambda c, s: np.full(len(c), 0.25),
            max_level=6,
            box_frac=(1, 1, 3 / 8),
        )
        assert covered_volume(t) == (MAX_COORD**3 * 3) // 8

    def test_non_binary_box_fraction_rejected(self):
        with pytest.raises(ValueError):
            build_adaptive_octree(
                lambda c, s: np.full(len(c), 0.25), max_level=6, box_frac=(1, 1, 0.3)
            )

    def test_min_level_enforced(self):
        t = build_adaptive_octree(
            lambda c, s: np.full(len(c), 1.0), max_level=6, min_level=2
        )
        assert np.all(t.levels >= 2)


class TestBalance:
    def test_already_balanced_unchanged(self):
        t = uniform_tree(2)
        b = balance_octree(t)
        assert b == t

    def test_unbalanced_pair_gets_split(self):
        # refine a chain toward the x = 1/2 plane inside the first root
        # child; the resulting level-4 leaf touches the level-1 leaf on
        # the other side of the plane, violating 2-to-1 by three levels
        root_kids = octant_children(pack_key(np.uint64(0), np.uint64(0))).ravel()
        keys = list(root_kids[1:])
        cur = root_kids[0]
        for _ in range(3):
            kids = octant_children(cur).ravel()
            keys.extend(kids[[0, 2, 3, 4, 5, 6, 7]])
            cur = kids[1]  # x-max, y-min, z-min child
        deep = cur
        keys.append(deep)
        t = LinearOctree(np.asarray(keys, dtype=np.uint64))
        t.validate()
        assert not is_balanced(t)
        b = balance_octree(t)
        b.validate()
        assert is_balanced(b)
        assert covered_volume(b) == MAX_COORD**3
        # the original deep leaf must survive (balancing never coarsens)
        assert int(deep) in set(int(k) for k in b.keys)

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_balance_random_trees(self, seed):
        t = graded_tree(seed, n_refine=25, max_level=5)
        b = balance_octree(t)
        b.validate()
        assert is_balanced(b)
        assert covered_volume(b) == MAX_COORD**3
        # refinement only: every original leaf is a leaf or was split
        assert len(b) >= len(t)

    @settings(deadline=None, max_examples=6)
    @given(
        st.integers(min_value=0, max_value=10_000), st.sampled_from([2, 4, 8])
    )
    def test_local_balance_matches_global(self, seed, blocks):
        # graded trees keep level-1 leaves, larger than 4- and 8-blocks
        t = graded_tree(seed, n_refine=25, max_level=5)
        g = balance_octree(t)
        l = local_balance_octree(t, blocks_per_axis=blocks)
        assert g == l

    def test_local_balance_of_leaves_larger_than_a_block(self):
        t = uniform_tree(1)  # leaves are half the domain
        assert local_balance_octree(t, blocks_per_axis=4) == balance_octree(t)

    def test_adaptive_then_balance(self):
        def target(c, s):
            r = np.linalg.norm(c - 0.5, axis=1)
            return np.where(r < 0.35, 1 / 32, 1 / 4)

        t = build_adaptive_octree(target, max_level=6)
        assert not is_balanced(t)
        b = balance_octree(t)
        assert is_balanced(b)
        assert covered_volume(b) == MAX_COORD**3
