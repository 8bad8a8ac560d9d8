"""Tests for the 3D elastic (lambda, mu) inversion."""

import numpy as np
import pytest

from repro.inverse import ElasticInverseProblem, MaterialGrid, gauss_newton_cg
from repro.mesh import uniform_hex_mesh
from repro.octree import build_adaptive_octree
from repro.sources.fault import PointForceSource, SourceCollection

L = 1000.0


def _stf(t):
    return (
        np.where(
            (t > 0) & (t < 0.15),
            np.sin(np.pi * np.clip(t, 0, 0.15) / 0.15) ** 2,
            0.0,
        )
        * 1e10
    )


@pytest.fixture(scope="module")
def elastic_setup():
    n = 4
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=3
    )
    mesh = uniform_hex_mesh(n, L=L)
    rho = np.full(mesh.nelem, 2000.0)
    grid = MaterialGrid((2, 2, 2), (L, L, L))
    lam_true = grid.sample(lambda p: 2.0e9 + 1.0e9 * (p[:, 2] > 500.0))
    mu_true = grid.sample(lambda p: 1.0e9 + 0.5e9 * (p[:, 2] > 500.0))
    m_true = np.concatenate([lam_true, mu_true])

    srcs = [
        PointForceSource(
            position=np.array([501.0, 501.0, 380.0]),
            direction=np.array([1.0, 0.5, 0.3]),
            time_function=_stf,
        ),
        PointForceSource(
            position=np.array([260.0, 740.0, 620.0]),
            direction=np.array([0.0, 0.0, 1.0]),
            time_function=lambda t: _stf(t - 0.05),
        ),
    ]
    forces = SourceCollection(mesh, tree, srcs)
    fbuf = np.zeros((mesh.nnode, 3))
    force_fn = lambda t: forces.forces_at(t, fbuf)

    dt = 0.4 * (L / n) / 2000.0 / np.sqrt(3)
    nsteps = 100
    prob0 = ElasticInverseProblem(
        mesh, grid, rho, np.arange(0), np.zeros((nsteps + 1, 0, 3)), dt,
        nsteps, force_fn,
    )
    u = prob0.march(
        prob0.fields(m_true), lambda k: dt**2 * force_fn(k * dt)
    )
    rec = mesh.surface_nodes(2, 0)
    data = u[:, rec, :]
    prob = ElasticInverseProblem(
        mesh, grid, rho, rec, data, dt, nsteps, force_fn
    )
    return prob, grid, m_true


class TestElasticGradient:
    def test_gradient_matches_fd_both_fields(self, elastic_setup):
        prob, grid, m_true = elastic_setup
        m0 = np.concatenate(
            [np.full(grid.n, 2.4e9), np.full(grid.n, 1.2e9)]
        )
        g, J, _ = prob.gradient(m0)
        eps = 2e5
        for i in [0, 7, grid.n, grid.n + 7, 2 * grid.n - 1]:
            mp, mm = m0.copy(), m0.copy()
            mp[i] += eps
            mm[i] -= eps
            fd = (prob.objective(mp)[0] - prob.objective(mm)[0]) / (2 * eps)
            assert abs(fd - g[i]) <= 1e-5 * max(abs(fd), 1e-30)

    def test_zero_gradient_at_truth(self, elastic_setup):
        prob, grid, m_true = elastic_setup
        g, J, _ = prob.gradient(m_true)
        assert J < 1e-25
        assert np.abs(g).max() < 1e-22

    def test_gn_symmetric_psd(self, elastic_setup):
        prob, grid, m_true = elastic_setup
        m0 = np.concatenate(
            [np.full(grid.n, 2.4e9), np.full(grid.n, 1.2e9)]
        )
        _, _, state = prob.gradient(m0)
        rng = np.random.default_rng(0)
        v, w = rng.standard_normal((2, 2 * grid.n)) * 1e8
        Hv = prob.gn_hessvec(v, state)
        Hw = prob.gn_hessvec(w, state)
        np.testing.assert_allclose(w @ Hv, v @ Hw, rtol=1e-10)
        assert v @ Hv >= 0 and w @ Hw >= 0

    def test_marches_run_the_forward_solvers_loop(
        self, elastic_setup, monkeypatch
    ):
        from repro.solver import wave_solver

        prob, grid, m_true = elastic_setup
        steps = []
        real_update = wave_solver.elastic_update

        def spy(*a):
            steps.append(1)
            real_update(*a)

        monkeypatch.setattr(wave_solver, "elastic_update", spy)
        _, _, state = prob.gradient(m_true)
        # forward and adjoint: steps 1 .. nsteps - 1 each
        assert len(steps) == 2 * (prob.nsteps - 1)
        prob.gn_hessvec(np.ones(2 * grid.n), state)
        assert len(steps) == 4 * (prob.nsteps - 1)

    def test_nonpositive_field_rejected(self, elastic_setup):
        prob, grid, m_true = elastic_setup
        with pytest.raises(FloatingPointError):
            prob.forward(-np.ones(2 * grid.n))

    def test_requires_conforming_mesh(self):
        from repro.octree import balance_octree
        from repro.mesh import extract_mesh

        def target(c, s):
            return np.where(np.all(c < 0.5, axis=1), 1 / 16, 1 / 8)

        tree = balance_octree(build_adaptive_octree(target, max_level=5))
        mesh = extract_mesh(tree, L=L)
        with pytest.raises(ValueError):
            ElasticInverseProblem(
                mesh,
                MaterialGrid((2, 2, 2), (L, L, L)),
                np.full(mesh.nelem, 2000.0),
                np.arange(0),
                np.zeros((11, 0, 3)),
                1e-3,
                10,
                lambda t: None,
            )


class TestElasticRecovery:
    def test_gn_recovers_both_fields(self, elastic_setup):
        prob, grid, m_true = elastic_setup
        m0 = np.concatenate(
            [np.full(grid.n, 2.4e9), np.full(grid.n, 1.2e9)]
        )
        J0 = prob.objective(m0)[0]
        res = gauss_newton_cg(prob, m0, max_newton=10, cg_maxiter=25)
        assert res.objective < 1e-3 * J0
        lam_hat, mu_hat = prob.split(res.m)
        lam_t, mu_t = prob.split(m_true)
        assert (
            np.linalg.norm(mu_hat - mu_t) / np.linalg.norm(mu_t) < 0.05
        )
        assert (
            np.linalg.norm(lam_hat - lam_t) / np.linalg.norm(lam_t) < 0.15
        )
