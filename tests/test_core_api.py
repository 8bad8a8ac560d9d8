"""Tests for the high-level public API (repro.core)."""

import numpy as np
import pytest

from repro.core import (
    AntiplaneSetup,
    ForwardSimulation,
    MaterialInversion,
    SourceInversion,
)
from repro.materials import (
    HomogeneousMaterial,
    LayeredMaterial,
    SyntheticBasinModel,
)
from repro.sources import idealized_strike_slip


@pytest.fixture(scope="module")
def small_forward():
    mat = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
    return ForwardSimulation(
        mat, L=2000.0, fmax=2.0, max_level=4, h_min=250.0
    )


class TestForwardSimulation:
    def test_mesh_summary(self, small_forward):
        s = small_forward.mesh_summary()
        assert s["elements"] > 0
        assert s["grid_points"] > s["elements"]
        assert s["dt_s"] > 0

    def test_run_records_seismograms(self, small_forward):
        sc = idealized_strike_slip(
            L=2000.0, n_strike=2, n_dip=1, rise_time=0.2
        )
        rec = np.array([[1000.0, 1000.0, 0.0], [500.0, 500.0, 0.0]])
        result = small_forward.run(
            sc, t_end=1.0, receivers=rec, snapshot_every=10
        )
        assert result.seismograms.data.shape[0] == 2
        assert result.seismograms.data.shape[2] == result.nsteps
        assert np.isfinite(result.seismograms.data).all()
        assert np.abs(result.seismograms.data).max() > 0
        assert result.snapshots.as_array().shape[0] >= 1

    def test_nsteps_is_the_marched_count_under_lts(self):
        # soft over stiff: clusters up to rate 8, so the march is
        # rounded up to a sync boundary (13 -> 16 steps)
        soft_over_stiff = LayeredMaterial(
            [875.0], vs=[200.0, 1600.0], vp=[400.0, 3200.0],
            rho=[2000.0, 2000.0],
        )
        sim = ForwardSimulation(
            soft_over_stiff, L=2000.0, fmax=0.1, box_frac=(1, 1, 0.5),
            max_level=3,
        )
        assert sim.solver.lts_plan(max_rate=8).max_rate == 8
        result = sim.run(
            idealized_strike_slip(L=2000.0, n_strike=2, n_dip=1),
            t_end=12.5 * sim.dt, receivers=np.array([[1000.0, 1000.0, 0.0]]),
            lts=8,
        )
        assert result.nsteps == result.seismograms.data.shape[2] == 16

    def test_basin_mesh_is_multiresolution(self):
        mat = SyntheticBasinModel(L=8000.0, depth=4000.0, vs_min=400.0)
        sim = ForwardSimulation(
            mat, L=8000.0, fmax=0.25, box_frac=(1, 1, 0.5), max_level=5
        )
        summary = sim.mesh_summary()
        assert len(summary["levels"]) > 1  # adaptive
        # soft basin forces finer elements than the bedrock needs
        assert summary["h_min_m"] < summary["h_max_m"]
        assert summary["hanging_points"] > 0

    def test_uniform_equivalent_savings(self):
        mat = SyntheticBasinModel(L=8000.0, depth=4000.0, vs_min=200.0)
        sim = ForwardSimulation(
            mat, L=8000.0, fmax=0.5, box_frac=(1, 1, 0.5), max_level=6
        )
        savings = sim.uniform_equivalent_grid_points() / sim.mesh.nnode
        assert savings > 3.0  # grows with contrast; huge at paper scale


@pytest.fixture(scope="module")
def antiplane():
    def vs(pts):
        return 1.0 + 0.8 * (pts[:, 1] > 2.0)

    return AntiplaneSetup(
        vs,
        lengths=(8.0, 4.0),
        wave_shape=(24, 12),
        n_receivers=12,
        t_end=6.0,
        noise=0.0,
    )


class TestAntiplaneSetup:
    def test_data_shapes(self, antiplane):
        s = antiplane
        assert s.data.shape == (s.nsteps + 1, len(s.receivers))
        assert np.abs(s.data).max() > 0

    def test_noise_added(self):
        def vs(pts):
            return np.full(len(pts), 1.0)

        a = AntiplaneSetup(
            vs, lengths=(8.0, 4.0), wave_shape=(16, 8), n_receivers=8,
            t_end=4.0, noise=0.05,
        )
        assert not np.allclose(a.data, a.clean_data)
        rel = np.linalg.norm(a.data - a.clean_data) / np.linalg.norm(
            a.clean_data
        )
        assert 0.001 < rel < 1.0

    def test_material_grids_sequence(self, antiplane):
        grids = antiplane.material_grids(3)
        assert [g.shape for g in grids] == [(2, 1), (4, 2), (8, 4)]

    def test_bad_aspect_rejected(self):
        with pytest.raises(ValueError):
            AntiplaneSetup(
                lambda p: np.ones(len(p)),
                lengths=(8.0, 4.0),
                wave_shape=(16, 16),
            )


class TestMaterialInversionAPI:
    def test_inversion_improves_model(self, antiplane):
        inv = MaterialInversion(antiplane, beta_tv=1e-6)
        res = inv.run(n_levels=3, newton_per_level=4, cg_maxiter=15)
        assert len(res.model_errors) == 3
        # error shrinks as grids refine and iterations accumulate; this
        # quick run uses few iterations per level — the Figure 3.2 bench
        # pushes the error far lower
        assert res.model_errors[-1] < 0.8 * res.model_errors[0]
        assert res.model_errors[-1] < 0.65

    def test_predicted_waveform(self, antiplane):
        inv = MaterialInversion(antiplane)
        grids = antiplane.material_grids(2)
        m = grids[-1].sample(antiplane.mu_target_fn)
        node = int(antiplane.solver.surface_nodes()[3])
        w = inv.predicted_waveform(m, grids[-1], node)
        assert w.shape == (antiplane.nsteps + 1,)
        assert np.abs(w).max() > 0


class TestSourceInversionAPI:
    def test_source_recovery(self, antiplane):
        inv = SourceInversion(antiplane)
        p_hat, res = inv.run(max_newton=20, cg_maxiter=40)
        pt = antiplane.params_true
        assert np.abs(p_hat.u0 - pt.u0).max() < 0.1
        assert np.abs(p_hat.t0 - pt.t0).max() < 0.1
        assert np.abs(p_hat.T - pt.T).max() < 0.1
        assert res.total_cg_iterations > 0
