"""Tests for the inversion extensions: checkpointed gradients (segment
replays of the one march) and frequency continuation (residual
smoothing)."""

import numpy as np
import pytest

from repro.inverse import (
    FaultLineSource2D,
    MaterialGrid,
    ScalarWaveInverseProblem,
    multiscale_invert,
)
from repro.inverse.problem import gaussian_time_kernel
from repro.solver import RegularGridScalarWave


@pytest.fixture(scope="module")
def setup2d():
    nx, nz = 16, 8
    h = 100.0
    solver = RegularGridScalarWave((nx, nz), h, rho=1000.0)
    grid = MaterialGrid((4, 2), (nx * h, nz * h))
    m_true = grid.sample(lambda p: 2.0e9 + 1.5e9 * (p[:, 1] > 400.0))
    fault = FaultLineSource2D(solver, ix=nx // 2, jz=range(2, 6))
    params = fault.hypocentral_params(
        hypo_j=4, rupture_velocity=2000.0, u0=1.0, t0=0.3
    )
    mu_e = grid.to_elements(solver) @ m_true
    dt = solver.stable_dt(np.full(solver.nelem, m_true.max()))
    nsteps = 120
    u = solver.march(
        mu_e, fault.forcing(mu_e, params, dt), nsteps, dt, store=True
    )
    rec = solver.surface_nodes()[::2]
    return solver, grid, fault, params, rec, u[:, rec], dt, nsteps, m_true


class TestCheckpointedGradient:
    def test_matches_full_store(self, setup2d):
        solver, grid, fault, params, rec, data, dt, nsteps, _ = setup2d
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
        )
        m0 = np.full(grid.n, 2.5e9)
        g_full, J_full, _ = prob.gradient(m0)
        for slots in (3, 8, 20):
            g_cp, J_cp = prob.gradient_checkpointed(m0, slots=slots)
            np.testing.assert_allclose(J_cp, J_full, rtol=1e-14)
            np.testing.assert_allclose(g_cp, g_full, rtol=1e-10)

    def test_matches_with_regularization_and_barrier(self, setup2d):
        from repro.inverse import TotalVariation

        solver, grid, fault, params, rec, data, dt, nsteps, _ = setup2d
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
            reg=TotalVariation(grid, beta=1e-12, eps=1e6),
            barrier_gamma=1e-4, mu_min=1e8,
        )
        rng = np.random.default_rng(0)
        m0 = 2.5e9 + 1e8 * rng.standard_normal(grid.n)
        g_full, J_full, _ = prob.gradient(m0)
        g_cp, J_cp = prob.gradient_checkpointed(m0, slots=6)
        np.testing.assert_allclose(J_cp, J_full, rtol=1e-12)
        np.testing.assert_allclose(g_cp, g_full, rtol=1e-9)


def _shots(setup2d, n):
    """``n`` fault shots on the fixture's model, each its own data."""
    from repro.inverse.problem import Shot

    solver, grid, _, _, rec, _, dt, nsteps, m_true = setup2d
    mu_e = grid.to_elements(solver) @ m_true
    shots = []
    for ix in (8, 4, 12)[:n]:
        fault = FaultLineSource2D(solver, ix=ix, jz=range(2, 6))
        params = fault.hypocentral_params(
            hypo_j=4, rupture_velocity=2000.0, u0=1.0, t0=0.3
        )
        u = solver.march(
            mu_e, fault.forcing(mu_e, params, dt), nsteps, dt, store=True
        )
        shots.append(Shot(rec, u[:, rec], fault=fault, source_params=params))
    return shots


class TestCheckpointedSegments:
    @pytest.mark.parametrize("nshots", [1, 2])
    def test_one_slot_is_the_stored_gradient_bitwise(self, setup2d, nshots):
        solver, grid, _, _, _, _, dt, nsteps, _ = setup2d
        prob = ScalarWaveInverseProblem.multi_shot(
            solver, grid, _shots(setup2d, nshots), dt, nsteps
        )
        m0 = np.full(grid.n, 2.5e9)
        g_full, J_full, _ = prob.gradient(m0)
        g_cp, J_cp = prob.gradient_checkpointed(m0, slots=1)
        assert np.array_equal(g_cp, g_full)
        np.testing.assert_allclose(J_cp, J_full, rtol=1e-14)

    def test_two_shots_match_the_stored_gradient(self, setup2d):
        solver, grid, _, _, _, _, dt, nsteps, _ = setup2d
        prob = ScalarWaveInverseProblem.multi_shot(
            solver, grid, _shots(setup2d, 2), dt, nsteps
        )
        rng = np.random.default_rng(1)
        m0 = 2.5e9 + 1e8 * rng.standard_normal(grid.n)
        g_full, J_full, _ = prob.gradient(m0)
        n0 = prob.n_wave_solves
        g_cp, J_cp = prob.gradient_checkpointed(m0, slots=5)
        assert prob.n_wave_solves - n0 == 2
        np.testing.assert_allclose(J_cp, J_full, rtol=1e-12)
        np.testing.assert_allclose(g_cp, g_full, rtol=1e-12)

    def test_peak_memory_is_at_most_half_the_stored_gradient(self, setup2d):
        import tracemalloc

        solver, grid, fault, params, rec, data, dt, nsteps, _ = setup2d
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
        )
        m0 = np.full(grid.n, 2.5e9)
        prob.gradient(m0)  # warm the operator cache

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        full = peak(lambda: prob.gradient(m0))
        checkpointed = peak(lambda: prob.gradient_checkpointed(m0, slots=8))
        assert checkpointed <= 0.5 * full

    def test_rejects_no_slots(self, setup2d):
        solver, grid, fault, params, rec, data, dt, nsteps, _ = setup2d
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
        )
        with pytest.raises(ValueError, match="slot"):
            prob.gradient_checkpointed(np.full(grid.n, 2.5e9), slots=0)


class TestFrequencyContinuation:
    def test_kernel_properties(self):
        w = gaussian_time_kernel(0.01, 2.0)
        assert len(w) % 2 == 1
        np.testing.assert_allclose(w, w[::-1])
        np.testing.assert_allclose(w.sum(), 1.0)
        with pytest.raises(ValueError):
            gaussian_time_kernel(0.01, -1.0)

    def test_asymmetric_kernel_rejected(self, setup2d):
        solver, grid, fault, params, rec, data, dt, nsteps, _ = setup2d
        with pytest.raises(ValueError):
            ScalarWaveInverseProblem(
                solver, grid, rec, data, dt, nsteps, fault=fault,
                source_params=params,
                residual_smoother=np.array([0.2, 0.5, 0.3]),
            )

    def test_smoothed_gradient_matches_fd(self, setup2d):
        """Exactness must survive the residual filter (F^T F term)."""
        solver, grid, fault, params, rec, data, dt, nsteps, _ = setup2d
        w = gaussian_time_kernel(dt, f_cut=3.0)
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params, residual_smoother=w,
        )
        m0 = np.full(grid.n, 2.5e9)
        g, J, _ = prob.gradient(m0)
        eps = 2.5e5
        for i in [1, 6, 11]:
            mp, mm = m0.copy(), m0.copy()
            mp[i] += eps
            mm[i] -= eps
            fd = (prob.objective(mp)[0] - prob.objective(mm)[0]) / (2 * eps)
            np.testing.assert_allclose(g[i], fd, rtol=1e-5)

    def test_smoothing_lowers_misfit_of_coarse_errors(self, setup2d):
        """A heavily smoothed misfit is less sensitive to fine-scale
        model errors (the continuation mechanism)."""
        solver, grid, fault, params, rec, data, dt, nsteps, m_true = setup2d
        m_off = m_true * 1.15
        raw = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
        )
        smooth = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
            residual_smoother=gaussian_time_kernel(dt, f_cut=0.5),
        )
        J_raw = raw.objective(m_off)[0]
        J_s = smooth.objective(m_off)[0]
        assert J_s < J_raw

    def test_multiscale_with_level_dependent_smoother(self, setup2d):
        solver, grid, fault, params, rec, data, dt, nsteps, m_true = setup2d
        L = (1600.0, 800.0)
        grids = [MaterialGrid((2, 1), L), MaterialGrid((4, 2), L)]
        cutoffs = [2.0, 8.0]

        def make_problem(g, level):
            return ScalarWaveInverseProblem(
                solver, g, rec, data, dt, nsteps, fault=fault,
                source_params=params,
                residual_smoother=gaussian_time_kernel(dt, cutoffs[level]),
            )

        res = multiscale_invert(
            make_problem, grids, m_init=2.5e9, newton_per_level=3,
            cg_maxiter=10,
        )
        assert len(res.levels) == 2
        Js = [r.objective for _, r in res.levels]
        assert np.isfinite(Js).all()
