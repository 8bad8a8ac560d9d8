"""Tests for shape functions, reference elements, damping, and the
element-based matvec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import (
    ElasticOperator,
    assemble_csr,
    gauss_points_weights,
    hex_elastic_reference,
    rayleigh_coefficients,
    scalar_mass_reference,
    scalar_stiffness_reference,
    shape_functions,
    shape_gradients,
    tet_elastic_stiffness,
    tet_lumped_mass,
)
from repro.fem.assembly import lumped_mass
from repro.fem.damping import damping_ratio
from repro.mesh import hex_to_tet_mesh, uniform_hex_mesh
from tests.oracles import hex_consistent_mass_reference, hex_element_stiffness


class TestShape:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_partition_of_unity(self, d):
        rng = np.random.default_rng(0)
        xi = rng.random((20, d))
        N = shape_functions(xi, d)
        np.testing.assert_allclose(N.sum(axis=1), 1.0, atol=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kronecker_at_corners(self, d):
        nn = 1 << d
        corners = np.array(
            [[(k >> a) & 1 for a in range(d)] for k in range(nn)], dtype=float
        )
        N = shape_functions(corners, d)
        np.testing.assert_allclose(N, np.eye(nn), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_gradients_match_fd(self, d):
        rng = np.random.default_rng(1)
        xi = rng.random((5, d)) * 0.8 + 0.1
        g = shape_gradients(xi, d)
        eps = 1e-6
        for a in range(d):
            xp = xi.copy()
            xp[:, a] += eps
            xm = xi.copy()
            xm[:, a] -= eps
            fd = (shape_functions(xp, d) - shape_functions(xm, d)) / (2 * eps)
            np.testing.assert_allclose(g[:, :, a], fd, atol=1e-8)

    def test_gauss_weights_sum_to_volume(self):
        for d in (1, 2, 3):
            _, w = gauss_points_weights(d)
            np.testing.assert_allclose(w.sum(), 1.0)

    def test_gauss_exactness_quadratic(self):
        pts, w = gauss_points_weights(1, n=2)
        # int_0^1 x^2 dx = 1/3; int x^3 = 1/4 (2-pt exact to degree 3)
        np.testing.assert_allclose(np.sum(w * pts[:, 0] ** 2), 1 / 3)
        np.testing.assert_allclose(np.sum(w * pts[:, 0] ** 3), 1 / 4)


class TestHexElement:
    def test_reference_symmetric(self):
        K_l, K_m = hex_elastic_reference()
        np.testing.assert_allclose(K_l, K_l.T, atol=1e-13)
        np.testing.assert_allclose(K_m, K_m.T, atol=1e-13)

    def test_rigid_body_modes_in_nullspace(self):
        """Translations and infinitesimal rotations produce zero force."""
        K = hex_element_stiffness(2.0, 1.7e9, 0.8e9)
        corners = np.array(
            [[(k >> a) & 1 for a in range(3)] for k in range(8)], dtype=float
        )
        modes = []
        for a in range(3):  # translations
            m = np.zeros((8, 3))
            m[:, a] = 1.0
            modes.append(m.ravel())
        # rotations about each axis
        c = corners - 0.5
        for axis in range(3):
            rot = np.zeros((8, 3))
            a, b = [(1, 2), (2, 0), (0, 1)][axis]
            rot[:, a] = -c[:, b]
            rot[:, b] = c[:, a]
            modes.append(rot.ravel())
        for m in modes:
            r = K @ m
            assert np.linalg.norm(r) < 1e-6 * np.linalg.norm(K)

    def test_positive_semidefinite(self):
        K = hex_element_stiffness(1.0, 1.0, 1.0)
        w = np.linalg.eigvalsh(K)
        assert w.min() > -1e-12
        # exactly 6 zero modes
        assert np.sum(np.abs(w) < 1e-10) == 6

    def test_scaling_with_h(self):
        K1 = hex_element_stiffness(1.0, 2.0, 3.0)
        K2 = hex_element_stiffness(4.0, 2.0, 3.0)
        np.testing.assert_allclose(K2, 4.0 * K1)

    def test_consistent_mass_rowsum_is_lumped(self):
        M = hex_consistent_mass_reference()
        np.testing.assert_allclose(M.sum(axis=1), 1.0 / 8.0, atol=1e-14)
        np.testing.assert_allclose(M.sum(), 1.0)

    def test_uniaxial_strain_energy(self):
        """Uniform strain e_xx = 1 on a unit cube with (lam, mu) stores
        energy (lam/2 + mu) -> u^T K u = lam + 2 mu."""
        lam, mu = 2.3, 0.9
        K = hex_element_stiffness(1.0, lam, mu)
        corners = np.array(
            [[(k >> a) & 1 for a in range(3)] for k in range(8)], dtype=float
        )
        u = np.zeros((8, 3))
        u[:, 0] = corners[:, 0]  # u_x = x
        e = u.ravel() @ K @ u.ravel()
        np.testing.assert_allclose(e, lam + 2 * mu, rtol=1e-12)

    def test_pure_shear_energy(self):
        """u_x = y gives energy mu on the unit cube."""
        lam, mu = 2.3, 0.9
        K = hex_element_stiffness(1.0, lam, mu)
        corners = np.array(
            [[(k >> a) & 1 for a in range(3)] for k in range(8)], dtype=float
        )
        u = np.zeros((8, 3))
        u[:, 0] = corners[:, 1]
        e = u.ravel() @ K @ u.ravel()
        np.testing.assert_allclose(e, mu, rtol=1e-12)


class TestScalarElement:
    @pytest.mark.parametrize("d", [2, 3])
    def test_stiffness_nullspace_is_constants(self, d):
        K = scalar_stiffness_reference(d)
        np.testing.assert_allclose(K @ np.ones(1 << d), 0.0, atol=1e-13)
        w = np.linalg.eigvalsh(K)
        assert np.sum(np.abs(w) < 1e-12) == 1

    @pytest.mark.parametrize("d", [2, 3])
    def test_mass_total(self, d):
        M = scalar_mass_reference(d)
        np.testing.assert_allclose(M.sum(), 1.0)

    def test_linear_field_energy_2d(self):
        K = scalar_stiffness_reference(2)
        corners = np.array([[k & 1, (k >> 1) & 1] for k in range(4)], dtype=float)
        u = 3.0 * corners[:, 0]  # grad = (3, 0) -> energy 9
        np.testing.assert_allclose(u @ K @ u, 9.0, rtol=1e-12)


class TestTetElement:
    def _mesh(self):
        mesh = uniform_hex_mesh(2, L=2.0)
        return hex_to_tet_mesh(mesh)

    def test_rigid_modes(self):
        tet = self._mesh()
        lam = np.full(tet.nelem, 1.3e9)
        mu = np.full(tet.nelem, 0.6e9)
        K = tet_elastic_stiffness(tet.coords, tet.conn, lam, mu)
        # translation in x on each element
        u = np.zeros((tet.nelem, 12))
        u[:, 0::3] = 1.0
        r = np.einsum("eij,ej->ei", K, u)
        assert np.abs(r).max() < 1e-3  # Pa-scale entries, ~1e9 magnitudes

    def test_symmetry_and_psd(self):
        tet = self._mesh()
        lam = np.full(tet.nelem, 2.0)
        mu = np.full(tet.nelem, 1.0)
        K = tet_elastic_stiffness(tet.coords, tet.conn, lam, mu)
        np.testing.assert_allclose(K, np.transpose(K, (0, 2, 1)), atol=1e-12)
        w = np.linalg.eigvalsh(K[0])
        assert w.min() > -1e-12

    def test_lumped_mass_total(self):
        tet = self._mesh()
        rho = np.full(tet.nelem, 1500.0)
        m = tet_lumped_mass(tet.coords, tet.conn, rho, tet.nnode)
        np.testing.assert_allclose(m.sum(), 1500.0 * 8.0)  # rho * volume

    def test_uniaxial_patch_matches_hex(self):
        """The assembled tet energy of a uniform strain field equals the
        hex energy (both integrate the exact constant strain)."""
        mesh = uniform_hex_mesh(2, L=1.0)
        tet = hex_to_tet_mesh(mesh)
        lam_, mu_ = 2.0, 1.0
        Kt = tet_elastic_stiffness(
            tet.coords, tet.conn, np.full(tet.nelem, lam_), np.full(tet.nelem, mu_)
        )
        u = np.zeros((tet.nnode, 3))
        u[:, 0] = tet.coords[:, 0]
        ue = u[tet.conn].reshape(tet.nelem, 12)
        e = np.einsum("ei,eij,ej->", ue, Kt, ue)
        np.testing.assert_allclose(e, lam_ + 2 * mu_, rtol=1e-12)


class TestDamping:
    def test_fit_hits_target_at_band_interior(self):
        alpha, beta = rayleigh_coefficients(0.05, 0.1, 1.0)
        f = np.linspace(0.1, 1.0, 50)
        xi = damping_ratio(alpha, beta, f)
        # within the band the ratio stays near the target; the largest
        # deviation sits at the band edges (Rayleigh damping grows both
        # inversely and linearly with frequency)
        assert np.abs(xi - 0.05).max() < 0.035
        assert abs(xi.mean() - 0.05) < 0.01

    def test_overdamped_outside_band(self):
        """Paper: very low and very high frequencies are overdamped."""
        alpha, beta = rayleigh_coefficients(0.05, 0.1, 1.0)
        assert damping_ratio(alpha, beta, 0.01) > 0.1
        assert damping_ratio(alpha, beta, 10.0) > 0.1

    def test_vectorized_targets(self):
        xi = np.array([0.02, 0.05, 0.10])
        alpha, beta = rayleigh_coefficients(xi, 0.1, 1.0)
        assert alpha.shape == xi.shape
        # linearity in the target
        np.testing.assert_allclose(alpha / alpha[0], xi / xi[0])

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            rayleigh_coefficients(0.05, 1.0, 0.5)


class TestElasticOperator:
    def _op(self, n=2, lam_=2.0, mu_=1.0):
        mesh = uniform_hex_mesh(n, L=1.0)
        lam = np.full(mesh.nelem, lam_)
        mu = np.full(mesh.nelem, mu_)
        op = ElasticOperator(mesh.conn, mesh.elem_h, lam, mu, mesh.nnode)
        return mesh, op

    def test_matches_csr(self):
        mesh, op = self._op(2)
        A = assemble_csr(
            mesh.conn,
            mesh.elem_h,
            np.full(mesh.nelem, 2.0),
            np.full(mesh.nelem, 1.0),
            mesh.nnode,
        )
        rng = np.random.default_rng(0)
        u = rng.standard_normal((mesh.nnode, 3))
        y1 = op.matvec(u)
        y2 = (A @ u.ravel()).reshape(mesh.nnode, 3)
        np.testing.assert_allclose(y1, y2, rtol=1e-10, atol=1e-12)

    def test_diagonal_matches_csr(self):
        mesh, op = self._op(2)
        A = assemble_csr(
            mesh.conn,
            mesh.elem_h,
            np.full(mesh.nelem, 2.0),
            np.full(mesh.nelem, 1.0),
            mesh.nnode,
        )
        np.testing.assert_allclose(
            op.diagonal().ravel(), A.diagonal(), rtol=1e-10
        )

    def test_rigid_translation_zero(self):
        mesh, op = self._op(4)
        u = np.zeros((mesh.nnode, 3))
        u[:, 1] = 1.0
        assert np.abs(op.matvec(u)).max() < 1e-10

    def test_linear_displacement_interior_equilibrium(self):
        """A uniform-strain field is in equilibrium: interior nodes see
        zero residual (boundary nodes carry the surface traction)."""
        mesh, op = self._op(4)
        u = np.zeros((mesh.nnode, 3))
        u[:, 0] = mesh.coords[:, 0]
        r = op.matvec(u)
        interior = np.all(
            (mesh.node_ticks > 0) & (mesh.node_ticks < mesh.box_ticks), axis=1
        )
        assert np.abs(r[interior]).max() < 1e-10
        assert np.abs(r[~interior]).max() > 1e-3

    def test_lumped_mass_conserves_total(self):
        mesh, _ = self._op(4)
        rho = np.full(mesh.nelem, 2200.0)
        m = lumped_mass(mesh.conn, mesh.elem_h, rho, mesh.nnode)
        np.testing.assert_allclose(m.sum(), 2200.0 * 1.0)

    def test_flop_count_positive(self):
        _, op = self._op(2)
        assert op.flops_per_matvec > 0

    @settings(deadline=None, max_examples=10)
    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_property_symmetry(self, lam_, mu_):
        mesh, op = self._op(2, lam_, mu_)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((mesh.nnode, 3))
        v = rng.standard_normal((mesh.nnode, 3))
        a = np.sum(v * op.matvec(u))
        b = np.sum(u * op.matvec(v))
        np.testing.assert_allclose(a, b, rtol=1e-10)
