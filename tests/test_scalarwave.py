"""Tests for the regular-grid scalar wave substrate."""

import numpy as np
import pytest

from repro.solver import RegularGridScalarWave
from repro.inverse import FaultLineSource2D


def standing_mode_error(n, steps_per_period=None):
    """Error of the (1,0) standing mode on an all-free box after one
    period; second-order convergence in h (with dt ~ h)."""
    L = 1000.0
    rho, vs = 1000.0, 1000.0
    mu = rho * vs**2
    solver = RegularGridScalarWave((n, n), L / n, rho, absorbing=[])
    mu_e = np.full(solver.nelem, mu)
    coords = solver.node_coords()
    omega = np.pi * vs / L
    period = 2 * np.pi / omega
    dt = period / (40 * n // 8)  # dt shrinks with h
    nsteps = int(round(period / dt))
    dt = period / nsteps
    u0 = np.cos(np.pi * coords[:, 0] / L)
    # exact second state: u(dt) = u0 cos(omega dt)
    u1 = u0 * np.cos(omega * dt)
    hist = solver.march(
        mu_e, lambda k: None, nsteps, dt, store=True, x0=u0, x1=u1
    )
    exact = u0 * np.cos(omega * nsteps * dt)
    return np.linalg.norm(hist[-1] - exact) / np.linalg.norm(exact)


class TestScalarWaveCore:
    def test_grid_structure(self):
        s = RegularGridScalarWave((4, 3), 10.0, 1000.0)
        assert s.nnode == 5 * 4
        assert s.nelem == 12
        assert s.conn.shape == (12, 4)
        assert len(s.surface_nodes()) == 5

    def test_3d_grid(self):
        s = RegularGridScalarWave((3, 3, 3), 10.0, 1000.0)
        assert s.nnode == 64
        assert s.conn.shape == (27, 8)
        assert len(s.surface_nodes()) == 16

    def test_mass_conserves_total(self):
        s = RegularGridScalarWave((4, 4), 25.0, 1500.0)
        np.testing.assert_allclose(s.m.sum(), 1500.0 * (4 * 25.0) ** 2)

    def test_apply_K_constant_field_zero(self):
        s = RegularGridScalarWave((5, 4), 10.0, 1000.0)
        mu = np.random.default_rng(0).random(s.nelem) + 1.0
        r = s.apply_K(mu, np.ones(s.nnode))
        np.testing.assert_allclose(r, 0.0, atol=1e-12)

    def test_apply_K_symmetric(self):
        s = RegularGridScalarWave((4, 4), 10.0, 1000.0)
        rng = np.random.default_rng(1)
        mu = rng.random(s.nelem) + 0.5
        u, v = rng.standard_normal((2, s.nnode))
        np.testing.assert_allclose(
            v @ s.apply_K(mu, u), u @ s.apply_K(mu, v), rtol=1e-12
        )

    def test_K_material_gradient_is_exact_derivative(self):
        s = RegularGridScalarWave((4, 3), 10.0, 1000.0)
        rng = np.random.default_rng(2)
        mu = rng.random(s.nelem) + 1.0
        u, lam = rng.standard_normal((2, s.nnode))
        g = s.K_material_gradient_batch(u[None], lam[None])
        eps = 1e-7
        for e in [0, 5, s.nelem - 1]:
            mp, mm = mu.copy(), mu.copy()
            mp[e] += eps
            mm[e] -= eps
            fd = (lam @ s.apply_K(mp, u) - lam @ s.apply_K(mm, u)) / (2 * eps)
            np.testing.assert_allclose(g[e], fd, rtol=1e-6)

    def test_C_material_gradient_is_exact_derivative(self):
        s = RegularGridScalarWave((4, 3), 10.0, 1000.0)
        rng = np.random.default_rng(3)
        mu = rng.random(s.nelem) + 1.0
        w, lam = rng.standard_normal((2, s.nnode))
        bn = s.damped_nodes
        g = s.C_material_gradient_batch(w[None, bn], lam[None, bn], mu)
        eps = 1e-7
        for e in range(s.nelem):
            mp, mm = mu.copy(), mu.copy()
            mp[e] += eps
            mm[e] -= eps
            fd = (
                lam @ (s.damping_diag(mp) * w) - lam @ (s.damping_diag(mm) * w)
            ) / (2 * eps)
            np.testing.assert_allclose(g[e], fd, rtol=1e-5, atol=1e-12)

    def test_free_surface_has_no_damping(self):
        s = RegularGridScalarWave((4, 4), 10.0, 1000.0)
        C = s.damping_diag(np.ones(s.nelem))
        surf = s.surface_nodes()
        interior_surf = surf[1:-1]  # corners touch absorbing sides
        np.testing.assert_allclose(C[interior_surf], 0.0)


class TestScalarWavePropagation:
    def test_standing_mode_frequency(self):
        err = standing_mode_error(16)
        assert err < 0.05

    def test_second_order_convergence(self):
        e1 = standing_mode_error(8)
        e2 = standing_mode_error(16)
        e3 = standing_mode_error(32)
        r1 = np.log2(e1 / e2)
        r2 = np.log2(e2 / e3)
        assert r1 > 1.6 and r2 > 1.6  # ~2nd order in h (dt ~ h)

    @staticmethod
    def _ricker_point_run(n, absorbing):
        L, rho, vs = 1000.0, 1000.0, 1000.0
        kwargs = {} if absorbing else {"absorbing": []}
        s = RegularGridScalarWave((n, n), L / n, rho, **kwargs)
        mu = np.full(s.nelem, rho * vs**2)
        dt = s.stable_dt(mu)
        src = s.node_index((n // 2, n // 2))
        f0 = 20.0  # Hz, zero-mean Ricker (no static offset)

        def forcing(k):
            t = k * dt
            a = (np.pi * f0 * (t - 0.12)) ** 2
            f = np.zeros(s.nnode)
            f[src] = dt**2 * 1e6 * (1 - 2 * a) * np.exp(-a)
            return f

        nsteps = int(3.0 * L / vs / dt)
        hist = s.march(mu, forcing, nsteps, dt, store=True)
        norm = np.linalg.norm(hist, axis=1)
        return norm[-1] / norm.max()

    def test_absorbing_vs_reflecting_energy(self):
        """Absorbing boundaries drain most of the wavefield energy; the
        residual is the 2D wake plus grazing-incidence reflection of the
        first-order condition.  The closed box keeps nearly all of it."""
        absorbed = self._ricker_point_run(32, absorbing=True)
        reflected = self._ricker_point_run(24, absorbing=False)
        assert absorbed < 0.7
        assert reflected > 0.75
        assert absorbed < reflected - 0.1

    def test_plane_wave_normal_incidence_absorbed(self):
        """Lysmer damping is exact at normal incidence: a rightward plane
        pulse exits through the x faces with <2% residual."""
        L, n = 1000.0, 64
        rho, vs = 1000.0, 1000.0
        s = RegularGridScalarWave(
            (n, 4), L / n, rho, absorbing=[(0, 0), (0, 1)]
        )
        mu = np.full(s.nelem, rho * vs**2)
        dt = s.stable_dt(mu)
        x = s.node_coords()[:, 0]
        g = lambda xx: np.exp(-(((xx - 300.0) / 50.0) ** 2))
        hist = s.march(
            mu,
            lambda k: None,
            int(1.5 * L / vs / dt),
            dt,
            store=True,
            x0=g(x),
            x1=g(x - vs * dt),
        )
        assert np.abs(hist[-1]).max() < 0.02 * np.abs(hist).max()

    def test_march_store_false_matches_store_true(self):
        s = RegularGridScalarWave((8, 8), 10.0, 1000.0)
        mu = np.full(s.nelem, 1e9)
        dt = s.stable_dt(mu)
        rng = np.random.default_rng(0)
        f0 = rng.standard_normal(s.nnode)

        def forcing(k):
            return f0 * np.sin(0.3 * k)

        h1 = s.march(mu, forcing, 40, dt, store=True)
        pair = s.march(mu, forcing, 40, dt, store=False)
        np.testing.assert_allclose(pair[1], h1[-1])
        np.testing.assert_allclose(pair[0], h1[-2])


class TestCheckpointing:
    def test_replay_matches_stored(self):
        """The replay a checkpointed gradient runs: a march restarted
        from rows ``(s, s + 1)`` with ``forcing(k + s)`` is rows ``s ..``
        of the stored history, bit for bit — with a fault source, with
        and without attenuation."""
        s = RegularGridScalarWave((12, 8), 100.0, 1000.0)
        rng = np.random.default_rng(5)
        mu = 2e9 + 1e8 * rng.random(s.nelem)
        dt = s.stable_dt(mu)
        fault = FaultLineSource2D(s, ix=6, jz=range(2, 6))
        params = fault.hypocentral_params(
            hypo_j=4, rupture_velocity=2000.0, u0=1.0, t0=0.05
        )
        forcing = fault.forcing(mu, params, dt)
        for alpha in (None, 0.5 * rng.random(s.nelem)):
            hist = s.march(mu, forcing, 80, dt, store=True, alpha=alpha)
            assert np.abs(hist).max() > 0
            for start, n in [(0, 80), (17, 30), (47, 33), (78, 2)]:
                seg = s.march(
                    mu, lambda k: forcing(k + start), n, dt, store=True,
                    x0=hist[start], x1=hist[start + 1], alpha=alpha,
                )
                assert np.array_equal(seg, hist[start : start + n + 1])
