"""Tests for regularization, preconditioning, GN-CG, multiscale, and
end-to-end inversion recovery."""

import numpy as np
import pytest

from repro.inverse import (
    FaultLineSource2D,
    LBFGSPreconditioner,
    MaterialGrid,
    ScalarWaveInverseProblem,
    SourceInverseProblem,
    Tikhonov1D,
    TotalVariation,
    frankel_solve,
    gauss_newton_cg,
    multiscale_invert,
)
from repro.inverse.fault_source import SourceParams
from repro.inverse.precond import power_estimate_lmax
from repro.solver import RegularGridScalarWave


class TestRegularization:
    def test_tv_zero_for_constant(self):
        grid = MaterialGrid((4, 4), (1.0, 1.0))
        tv = TotalVariation(grid, beta=1.0, eps=1e-8)
        m = np.full(grid.n, 3.0)
        assert tv.value(m) < 1e-6
        np.testing.assert_allclose(tv.gradient(m), 0.0, atol=1e-8)

    def test_tv_value_of_linear_ramp(self):
        # |grad m| = 2 everywhere on the unit square -> TV ~ 2
        grid = MaterialGrid((8, 8), (1.0, 1.0))
        m = 2.0 * grid.node_coords()[:, 0]
        tv = TotalVariation(grid, beta=1.0, eps=1e-9)
        np.testing.assert_allclose(tv.value(m), 2.0, rtol=1e-6)

    def test_tv_gradient_matches_fd(self):
        grid = MaterialGrid((4, 3), (1.0, 1.0))
        tv = TotalVariation(grid, beta=0.7, eps=0.1)
        rng = np.random.default_rng(0)
        m = rng.standard_normal(grid.n)
        g = tv.gradient(m)
        eps = 1e-7
        for i in [0, 5, grid.n - 1]:
            mp, mm = m.copy(), m.copy()
            mp[i] += eps
            mm[i] -= eps
            fd = (tv.value(mp) - tv.value(mm)) / (2 * eps)
            np.testing.assert_allclose(g[i], fd, rtol=1e-5, atol=1e-10)

    def test_tv_prefers_sharp_edge_over_smooth_at_same_jump(self):
        """TV of a jump is (nearly) independent of how it is smeared —
        unlike Tikhonov, which heavily penalizes the sharp version."""
        grid = MaterialGrid((16, 1), (1.0, 1.0 / 16))
        x = grid.node_coords()[:, 0]
        sharp = (x > 0.5).astype(float)
        smooth = np.clip((x - 0.25) / 0.5, 0, 1)
        tv = TotalVariation(grid, beta=1.0, eps=1e-6)
        ratio = tv.value(sharp) / tv.value(smooth)
        assert 0.9 < ratio < 1.1

    def test_tv_hessvec_spd(self):
        grid = MaterialGrid((5, 5), (1.0, 1.0))
        tv = TotalVariation(grid, beta=1.0, eps=0.5)
        rng = np.random.default_rng(1)
        m = rng.standard_normal(grid.n)
        v, w = rng.standard_normal((2, grid.n))
        np.testing.assert_allclose(
            w @ tv.hessvec(m, v), v @ tv.hessvec(m, w), rtol=1e-10
        )
        assert v @ tv.hessvec(m, v) >= 0

    def test_tikhonov_1d(self):
        t = Tikhonov1D(8, 0.5, beta=2.0)
        p = np.arange(8.0)
        # |dp/dx| = 2 on 7 intervals of length 0.5
        np.testing.assert_allclose(t.value(p), 0.5 * 2.0 * 0.5 * 7 * 4.0)
        g = t.gradient(p)
        eps = 1e-7
        fd = np.zeros(8)
        for i in range(8):
            pp, pm = p.copy(), p.copy()
            pp[i] += eps
            pm[i] -= eps
            fd[i] = (t.value(pp) - t.value(pm)) / (2 * eps)
        np.testing.assert_allclose(g, fd, atol=1e-6)
        # quadratic: the gradient is the Hessian applied to p
        np.testing.assert_array_equal(t.hessvec(p, p), g)


class TestMaterialGrid:
    def test_interpolation_partition_of_unity(self):
        grid = MaterialGrid((4, 4), (2.0, 2.0))
        pts = np.random.default_rng(0).random((50, 2)) * 2.0
        P = grid.interpolation_matrix(pts)
        np.testing.assert_allclose(
            np.asarray(P.sum(axis=1)).ravel(), 1.0, atol=1e-12
        )

    def test_interpolation_reproduces_linear_fields(self):
        grid = MaterialGrid((4, 4), (2.0, 2.0))
        m = grid.sample(lambda p: 3.0 * p[:, 0] - p[:, 1] + 1.0)
        pts = np.random.default_rng(1).random((30, 2)) * 2.0
        P = grid.interpolation_matrix(pts)
        np.testing.assert_allclose(
            P @ m, 3.0 * pts[:, 0] - pts[:, 1] + 1.0, atol=1e-12
        )

    def test_to_finer_nested(self):
        coarse = MaterialGrid((2, 2), (1.0, 1.0))
        fine = MaterialGrid((4, 4), (1.0, 1.0))
        m = coarse.sample(lambda p: p[:, 0] + 2 * p[:, 1])
        mf = coarse.to_finer(fine) @ m
        np.testing.assert_allclose(
            mf, fine.sample(lambda p: p[:, 0] + 2 * p[:, 1]), atol=1e-12
        )


class TestFrankelAndPreconditioner:
    def test_frankel_converges_on_spd_system(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((30, 30))
        A = A @ A.T + 5.0 * np.eye(30)
        w = np.linalg.eigvalsh(A)
        b = rng.standard_normal(30)
        x = frankel_solve(lambda v: A @ v, b, w[0], w[-1], iters=60)
        assert np.linalg.norm(A @ x - b) < 1e-5 * np.linalg.norm(b)

    def test_frankel_beats_first_order_richardson(self):
        rng = np.random.default_rng(1)
        A = np.diag(np.linspace(1.0, 100.0, 40))
        b = rng.standard_normal(40)
        x2 = frankel_solve(lambda v: A @ v, b, 1.0, 100.0, iters=25)
        # first-order optimal Richardson, same iteration count
        x1 = np.zeros(40)
        alpha = 2.0 / 101.0
        for _ in range(26):
            x1 = x1 + alpha * (b - A @ x1)
        r2 = np.linalg.norm(A @ x2 - b)
        r1 = np.linalg.norm(A @ x1 - b)
        assert r2 < 0.2 * r1

    def test_frankel_validates_spectrum(self):
        with pytest.raises(ValueError):
            frankel_solve(lambda v: v, np.ones(3), -1.0, 2.0)

    def test_power_estimate(self):
        A = np.diag([1.0, 5.0, 42.0])
        lmax = power_estimate_lmax(lambda v: A @ v, 3, iters=100)
        np.testing.assert_allclose(lmax, 42.0, rtol=1e-6)

    def test_lbfgs_preconditioner_learns_diagonal(self):
        """After seeing pairs from H = diag(d), applying the
        preconditioner to H x should roughly return x."""
        rng = np.random.default_rng(2)
        d = np.linspace(1.0, 50.0, 20)
        H = np.diag(d)
        pre = LBFGSPreconditioner(20, memory=25)
        for _ in range(25):
            s = rng.standard_normal(20)
            pre.stage_pair(s, H @ s)
        pre.commit()
        x = rng.standard_normal(20)
        y = pre.apply(H @ x)
        # much closer to x than the unpreconditioned residual
        assert np.linalg.norm(y - x) < 0.5 * np.linalg.norm(H @ x - x)

    def test_stage_rejects_nonpositive_curvature(self):
        pre = LBFGSPreconditioner(3)
        pre.stage_pair(np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]))
        pre.commit()
        assert len(pre.pairs) == 0


@pytest.fixture(scope="module")
def small_inversion():
    """A small 2D inversion whose target is reachable: two-layer medium,
    fault source, surface receivers.  Units: km, s, mu = vs^2 (rho=1)."""
    nx, nz = 24, 12
    h = 1.0 / 3.0
    solver = RegularGridScalarWave((nx, nz), h, rho=1.0)
    fault = FaultLineSource2D(solver, ix=nx // 2, jz=range(3, 9))
    params = fault.hypocentral_params(
        hypo_j=6, rupture_velocity=2.0, u0=1.0, t0=0.5
    )

    def mu_fn(pts):
        return (1.0 + 0.8 * (pts[:, 1] > 2.0)) ** 2

    fine = MaterialGrid((8, 4), (nx * h, nz * h))
    m_true = fine.sample(mu_fn)
    mu_e = fine.to_elements(solver) @ m_true
    dt = solver.stable_dt(np.full(solver.nelem, m_true.max()))
    nsteps = int(6.0 / dt)
    u = solver.march(
        mu_e, fault.forcing(mu_e, params, dt), nsteps, dt, store=True
    )
    rec = solver.surface_nodes()
    data = u[:, rec]
    return solver, fault, params, fine, m_true, rec, data, dt, nsteps


class TestGaussNewtonCG:
    def test_single_grid_reduces_misfit(self, small_inversion):
        solver, fault, params, fine, m_true, rec, data, dt, nsteps = (
            small_inversion
        )
        grid = MaterialGrid((4, 2), tuple(fine.lengths))
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
        )
        m0 = np.full(grid.n, 1.3)
        J0 = prob.objective(m0)[0]
        res = gauss_newton_cg(prob, m0, max_newton=6, cg_maxiter=20)
        assert res.objective < 0.2 * J0
        assert res.newton_iterations >= 1
        assert res.total_cg_iterations >= res.newton_iterations

    def test_preconditioner_does_not_break_convergence(self, small_inversion):
        solver, fault, params, fine, m_true, rec, data, dt, nsteps = (
            small_inversion
        )
        grid = MaterialGrid((4, 2), tuple(fine.lengths))
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
        )
        m0 = np.full(grid.n, 1.3)
        pre = LBFGSPreconditioner(grid.n)
        res = gauss_newton_cg(
            prob, m0, max_newton=6, cg_maxiter=20, precond=pre
        )
        assert res.objective < 0.2 * prob.objective(m0)[0]
        assert len(pre.pairs) > 0

    def test_barrier_keeps_positive(self, small_inversion):
        solver, fault, params, fine, m_true, rec, data, dt, nsteps = (
            small_inversion
        )
        grid = MaterialGrid((4, 2), tuple(fine.lengths))
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params, barrier_gamma=1e-6, mu_min=0.2,
        )
        res = gauss_newton_cg(
            prob, np.full(grid.n, 0.5), max_newton=8, cg_maxiter=20
        )
        assert np.all(res.m > 0.2)


class TestMultiscale:
    def test_levels_improve_model_error(self, small_inversion):
        solver, fault, params, fine, m_true, rec, data, dt, nsteps = (
            small_inversion
        )

        def make_problem(grid, level):
            return ScalarWaveInverseProblem(
                solver, grid, rec, data, dt, nsteps, fault=fault,
                source_params=params,
            )

        L = tuple(fine.lengths)
        grids = [
            MaterialGrid((2, 1), L),
            MaterialGrid((4, 2), L),
            MaterialGrid((8, 4), L),
        ]
        errs = []

        def cb(li, grid, m, result):
            mt = fine.sample(lambda p: None) if False else None

        res = multiscale_invert(
            make_problem, grids, m_init=1.3, newton_per_level=5,
            cg_maxiter=20,
        )
        assert res.grid_final.shape == (8, 4)
        err = np.linalg.norm(res.m_final - m_true) / np.linalg.norm(m_true)
        m0_err = np.linalg.norm(1.3 - m_true) / np.linalg.norm(m_true)
        assert err < 0.5 * m0_err
        # objective decreases across levels
        Js = [r.objective for _, r in res.levels]
        assert Js[-1] < Js[0]


class TestSourceInversionEndToEnd:
    def test_recovers_source_params(self, small_inversion):
        solver, fault, params, fine, m_true, rec, data, dt, nsteps = (
            small_inversion
        )
        mu_e = fine.to_elements(solver) @ m_true
        sp = SourceInverseProblem(
            solver, fault, mu_e, rec, data, dt, nsteps,
            beta_u0=1e-6, beta_t0=1e-6, beta_T=1e-6,
        )
        p0 = SourceParams(
            np.full(fault.ns, 0.8),
            np.full(fault.ns, 0.7),
            params.T + 0.2,
        )
        res = gauss_newton_cg(sp, p0.pack(), max_newton=12, cg_maxiter=25)
        p_hat = SourceParams.unpack(res.m)
        np.testing.assert_allclose(p_hat.u0, params.u0, atol=0.05)
        np.testing.assert_allclose(p_hat.t0, params.t0, atol=0.05)
        np.testing.assert_allclose(p_hat.T, params.T, atol=0.05)
