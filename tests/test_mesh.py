"""Tests for mesh extraction, hanging-node constraints, tet baseline,
and partitioning."""

import numpy as np
import pytest

from repro.mesh import (
    HexMesh,
    build_constraints,
    extract_mesh,
    hex_to_tet_mesh,
    partition_metrics,
    rcb_partition,
    uniform_hex_mesh,
    wavelength_target,
)
from repro.octree import (
    MAX_COORD,
    balance_octree,
    build_adaptive_octree,
    is_balanced,
)


def refined_corner_tree(max_level=3):
    """Balanced tree refined in the (0,0,0) corner: guarantees hanging
    nodes at the refinement interface."""

    def target(c, s):
        return np.where(np.all(c < 0.25, axis=1), 1.0 / 2**max_level, 0.25)

    t = build_adaptive_octree(target, max_level=max_level)
    return balance_octree(t)


class TestExtractMesh:
    def test_uniform_counts(self):
        mesh = uniform_hex_mesh(4, L=100.0)
        assert mesh.nelem == 64
        assert mesh.nnode == 5**3
        assert mesh.coords.max() == 100.0
        assert mesh.coords.min() == 0.0

    def test_conn_indices_valid_and_corner_order(self):
        mesh = uniform_hex_mesh(2, L=1.0)
        assert mesh.conn.min() >= 0 and mesh.conn.max() < mesh.nnode
        # corner order must be Morton: node k at offset (k&1,(k>>1)&1,(k>>2)&1)
        h = mesh.elem_h[0]
        for e in range(mesh.nelem):
            p0 = mesh.coords[mesh.conn[e, 0]]
            for k in range(8):
                off = np.array([k & 1, (k >> 1) & 1, (k >> 2) & 1]) * h
                np.testing.assert_allclose(mesh.coords[mesh.conn[e, k]], p0 + off)

    def test_shared_nodes_deduplicated(self):
        mesh = uniform_hex_mesh(2)
        # 8 elements share the center node
        counts = np.bincount(mesh.conn.ravel(), minlength=mesh.nnode)
        assert counts.max() == 8

    def test_multiresolution_mesh(self):
        tree = refined_corner_tree()
        mesh = extract_mesh(tree, L=1000.0)
        assert mesh.nelem == len(tree)
        assert len(np.unique(mesh.elem_level)) > 1

    def test_boundary_faces_free_surface(self):
        mesh = uniform_hex_mesh(4)
        idx, faces = mesh.boundary_faces(2, 0)  # z=0 plane
        assert len(idx) == 16
        assert np.all(mesh.node_ticks[faces.ravel(), 2] == 0)

    def test_boundary_faces_bottom(self):
        mesh = uniform_hex_mesh(4)
        idx, faces = mesh.boundary_faces(2, 1)
        assert len(idx) == 16
        assert np.all(mesh.node_ticks[faces.ravel(), 2] == MAX_COORD)

    def test_surface_nodes(self):
        mesh = uniform_hex_mesh(4)
        assert len(mesh.surface_nodes(2, 0)) == 25

    def test_box_frac_mesh(self):
        tree = build_adaptive_octree(
            lambda c, s: np.full(len(c), 0.25), max_level=4, box_frac=(1, 1, 0.5)
        )
        mesh = extract_mesh(balance_octree(tree), L=80.0, box_frac=(1, 1, 0.5))
        np.testing.assert_allclose(mesh.box_lengths, [80.0, 80.0, 40.0])
        assert mesh.coords[:, 2].max() == 40.0

    def test_wavelength_target_rule(self):
        vs = lambda pts: np.full(len(pts), 400.0)
        target = wavelength_target(vs, L=4000.0, fmax=1.0, points_per_wavelength=10)
        h = target(np.array([[0.5, 0.5, 0.5]]), np.array([0.5]))
        # h = 400/(10*1) = 40 m = 0.01 of L
        np.testing.assert_allclose(h, [0.01])


class TestHangingNodes:
    def test_uniform_mesh_has_no_hanging(self):
        from repro.octree.linear_octree import build_adaptive_octree

        tree = build_adaptive_octree(lambda c, s: np.full(len(c), 0.25), max_level=4)
        mesh = extract_mesh(tree)
        info = build_constraints(tree, mesh)
        assert info.n_hanging == 0
        assert info.B.shape == (mesh.nnode, mesh.nnode)
        # B is the identity
        assert (info.B != 0).sum() == mesh.nnode

    def test_refined_interface_has_hanging(self):
        tree = refined_corner_tree()
        mesh = extract_mesh(tree)
        info = build_constraints(tree, mesh)
        assert info.n_hanging > 0
        assert info.B.shape == (mesh.nnode, mesh.nnode - info.n_hanging)

    def test_weights_sum_to_one(self):
        tree = refined_corner_tree()
        mesh = extract_mesh(tree)
        info = build_constraints(tree, mesh)
        rowsum = np.asarray(info.B.sum(axis=1)).ravel()
        np.testing.assert_allclose(rowsum, 1.0, atol=1e-12)

    def test_masters_are_independent(self):
        tree = refined_corner_tree()
        mesh = extract_mesh(tree)
        info = build_constraints(tree, mesh)
        for i, st in info.masters.items():
            assert info.hanging[i]
            for j in st:
                assert not info.hanging[j], "master must be independent"

    def test_linear_field_patch_test(self):
        """Interpolating a linear field at independent nodes and applying
        B must reproduce the field exactly at hanging nodes."""
        tree = refined_corner_tree()
        mesh = extract_mesh(tree)
        info = build_constraints(tree, mesh)
        coords = mesh.coords
        f = 2.0 * coords[:, 0] - 3.0 * coords[:, 1] + 0.5 * coords[:, 2] + 7.0
        fbar = f[info.independent]
        np.testing.assert_allclose(info.B @ fbar, f, atol=1e-9)

    def test_hanging_count_matches_interface(self):
        """On a half-refined cube the hanging nodes sit exactly on the
        2-to-1 interface."""
        def target(c, s):
            return np.where(c[:, 0] < 0.5, 0.125, 0.25)

        tree = balance_octree(build_adaptive_octree(target, max_level=4))
        assert is_balanced(tree)
        mesh = extract_mesh(tree)
        info = build_constraints(tree, mesh)
        hang_nodes = mesh.node_ticks[info.hanging]
        assert np.all(hang_nodes[:, 0] == MAX_COORD // 2)


class TestTetMesh:
    def test_split_counts_and_volume(self):
        mesh = uniform_hex_mesh(2, L=2.0)
        tet = hex_to_tet_mesh(mesh)
        assert tet.nelem == mesh.nelem * 6
        vols = tet.volumes()
        assert np.all(vols > 0)
        np.testing.assert_allclose(vols.sum(), 8.0)

    def test_requires_conforming(self):
        tree = refined_corner_tree()
        mesh = extract_mesh(tree)
        with pytest.raises(ValueError):
            hex_to_tet_mesh(mesh)

    def test_face_diagonals_consistent(self):
        """Across a shared hex face, the two hexes' tets must induce the
        same diagonal (no cracks): check shared faces triangulate alike."""
        mesh = uniform_hex_mesh(2, L=1.0)
        tet = hex_to_tet_mesh(mesh)
        # collect all triangular faces; internal triangles must appear twice
        faces = {}
        for t in tet.conn:
            for tri in ([0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]):
                key = tuple(sorted(t[list(tri)]))
                faces[key] = faces.get(key, 0) + 1
        assert max(faces.values()) <= 2


class TestPartition:
    def test_rcb_balance(self):
        mesh = uniform_hex_mesh(8)
        parts = rcb_partition(mesh.elem_centers, 16)
        counts = np.bincount(parts, minlength=16)
        assert counts.min() >= 1
        assert counts.max() - counts.min() <= 1

    def test_rcb_non_power_of_two(self):
        mesh = uniform_hex_mesh(4)
        parts = rcb_partition(mesh.elem_centers, 5)
        counts = np.bincount(parts, minlength=5)
        assert len(counts) == 5
        assert counts.sum() == mesh.nelem
        assert counts.max() / counts.min() < 1.5

    def test_rcb_single_part(self):
        mesh = uniform_hex_mesh(2)
        parts = rcb_partition(mesh.elem_centers, 1)
        assert np.all(parts == 0)

    def test_partition_metrics(self):
        mesh = uniform_hex_mesh(4)
        parts = rcb_partition(mesh.elem_centers, 4)
        m = partition_metrics(mesh, parts)
        assert m.nparts == 4
        assert m.elems_per_part.sum() == mesh.nelem
        assert m.total_shared_nodes > 0
        assert m.edge_cut > 0
        assert m.imbalance >= 1.0
        # shared nodes are a minority for a good partition
        assert m.total_shared_nodes < mesh.nnode / 2

    def test_rcb_cut_grows_sublinearly(self):
        """Surface-to-volume: interface nodes per part shrink relative to
        local size as parts grow."""
        mesh = uniform_hex_mesh(8)
        m4 = partition_metrics(mesh, rcb_partition(mesh.elem_centers, 4))
        m32 = partition_metrics(mesh, rcb_partition(mesh.elem_centers, 32))
        # total interface grows with parts but much slower than 8x
        assert m32.total_shared_nodes < 4 * m4.total_shared_nodes
