"""Tests for slip functions, moment tensors, and fault scenarios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sources import (
    FiniteFaultScenario,
    MomentTensorSource,
    double_couple_moment,
    dslip_dT,
    dslip_dt0,
    idealized_northridge,
    idealized_strike_slip,
    nodal_forces_for_point_source,
    slip_function,
    slip_rate,
)


class TestSlipFunction:
    def test_bounds_and_monotone(self):
        t = np.linspace(-1, 10, 500)
        g = slip_function(t, T=1.0, t0=2.0)
        assert np.all(g >= 0) and np.all(g <= 1)
        assert np.all(np.diff(g) >= -1e-15)
        assert g[t <= 1.0].max() == 0.0
        np.testing.assert_allclose(g[t >= 3.0], 1.0)

    def test_continuity_at_knots(self):
        T, t0 = 0.5, 1.4
        for tk in (T, T + t0 / 2, T + t0):
            lo = slip_function(tk - 1e-9, T, t0)
            hi = slip_function(tk + 1e-9, T, t0)
            np.testing.assert_allclose(lo, hi, atol=1e-7)

    def test_rate_is_triangle_with_unit_area(self):
        T, t0 = 1.0, 2.0
        t = np.linspace(0, 5, 100_001)
        v = slip_rate(t, T, t0)
        np.testing.assert_allclose(np.trapezoid(v, t), 1.0, rtol=1e-6)
        np.testing.assert_allclose(v.max(), 2.0 / t0, rtol=1e-3)

    def test_rate_matches_fd_of_g(self):
        T, t0 = 0.7, 1.3
        t = np.linspace(0.0, 3.0, 7)[1:-1] + 0.013
        eps = 1e-6
        fd = (slip_function(t + eps, T, t0) - slip_function(t - eps, T, t0)) / (
            2 * eps
        )
        np.testing.assert_allclose(slip_rate(t, T, t0), fd, atol=1e-6)

    @settings(deadline=None, max_examples=25)
    @given(
        st.floats(0.1, 3.0),
        st.floats(0.2, 3.0),
        st.floats(0.01, 6.0),
    )
    def test_parameter_derivatives_match_fd(self, T, t0, t):
        eps = 1e-6
        # avoid the non-smooth knots
        for knot in (T, T + t0 / 2, T + t0):
            if abs(t - knot) < 1e-3:
                return
        fd_T = (
            slip_function(t, T + eps, t0) - slip_function(t, T - eps, t0)
        ) / (2 * eps)
        np.testing.assert_allclose(dslip_dT(t, T, t0), fd_T, atol=1e-5)
        fd_t0 = (
            slip_function(t, T, t0 + eps) - slip_function(t, T, t0 - eps)
        ) / (2 * eps)
        np.testing.assert_allclose(dslip_dt0(t, T, t0), fd_t0, atol=1e-5)


class TestMomentTensor:
    def test_symmetric_traceless_double_couple(self):
        M = double_couple_moment(30.0, 60.0, 45.0, 1e18)
        np.testing.assert_allclose(M, M.T, atol=1e3)
        np.testing.assert_allclose(np.trace(M), 0.0, atol=1e3)

    def test_magnitude(self):
        M = double_couple_moment(0.0, 90.0, 0.0, 2.0e18)
        # scalar moment = max eigenvalue for a double couple
        w = np.linalg.eigvalsh(M)
        np.testing.assert_allclose(w.max(), 2.0e18, rtol=1e-10)

    def test_vertical_strike_slip_structure(self):
        # strike 90 (fault along x), dip 90, rake 0: M_xy couple
        M = double_couple_moment(90.0, 90.0, 0.0, 1.0)
        assert abs(M[0, 1]) > 0.99
        assert abs(M[0, 0]) < 1e-12 and abs(M[2, 2]) < 1e-12


class TestPointSourceForces:
    def test_forces_sum_to_zero(self):
        """Dislocation forces are self-equilibrating (zero net force)."""
        from repro.mesh import uniform_hex_mesh
        from repro.octree.linear_octree import build_adaptive_octree

        tree = build_adaptive_octree(lambda c, s: np.full(len(c), 0.25), max_level=4)
        mesh = uniform_hex_mesh(4, L=1000.0)
        src = MomentTensorSource(
            position=np.array([510.0, 510.0, 510.0]),
            moment=double_couple_moment(90.0, 90.0, 0.0, 1e15),
            T=0.1,
            t0=0.5,
        )
        nodes, w = nodal_forces_for_point_source(mesh, tree, src)
        np.testing.assert_allclose(w.sum(axis=0), 0.0, atol=1e-3)
        assert np.abs(w).max() > 0

    def test_source_outside_mesh_raises(self):
        from repro.mesh import uniform_hex_mesh
        from repro.octree.linear_octree import build_adaptive_octree

        tree = build_adaptive_octree(lambda c, s: np.full(len(c), 0.25), max_level=4)
        mesh = uniform_hex_mesh(4, L=1000.0)
        src = MomentTensorSource(
            position=np.array([-5.0, 0.0, 0.0]),
            moment=np.eye(3),
            T=0.0,
            t0=1.0,
        )
        with pytest.raises(ValueError):
            nodal_forces_for_point_source(mesh, tree, src)

    def test_collection_stencils_match_one_source_at_a_time(self):
        """``SourceCollection`` locates and differentiates all moment-
        tensor sources in one batch: nodes identical and weights within
        one ulp of the per-source loop it replaced (kept here), with a
        source of another type in the middle keeping its own stencil."""
        from repro.fem.shape import shape_gradients
        from repro.mesh import uniform_hex_mesh
        from repro.octree.linear_octree import build_adaptive_octree
        from repro.octree.morton import MAX_COORD
        from repro.sources.fault import PointForceSource, SourceCollection

        tree = build_adaptive_octree(lambda c, s: np.full(len(c), 0.25), max_level=4)
        mesh = uniform_hex_mesh(4, L=1000.0)

        def one_at_a_time(src):
            ticks = np.asarray(src.position) / mesh.L * MAX_COORD
            e = int(tree.locate(np.floor(ticks).astype(np.int64)[None, :])[0])
            h = float(mesh.elem_h[e])
            anchor = mesh.elem_anchor[e] * (mesh.L / MAX_COORD)
            xi = (np.asarray(src.position) - anchor) / h
            g = shape_gradients(xi[None, :], 3)[0] / h
            return mesh.conn[e], g @ np.asarray(src.moment).T

        sources = list(
            idealized_strike_slip(L=1000.0, n_strike=6, n_dip=4).sources
        )
        force = PointForceSource(
            position=np.array([510.0, 490.0, 300.0]),
            direction=np.array([1.0, 2.0, -1.0]),
            time_function=lambda t: 1.0,
        )
        sources.insert(7, force)
        coll = SourceCollection(mesh, tree, sources)
        assert len(coll.nodes) == len(coll.weights) == len(sources) == 25
        for s, n, w in zip(sources, coll.nodes, coll.weights):
            n_ref, w_ref = (
                s.stencil(mesh, tree) if s is force else one_at_a_time(s)
            )
            assert np.array_equal(n, n_ref)
            assert np.all(np.abs(w - w_ref) <= np.spacing(np.abs(w_ref).max()))
        # the out-of-mesh error still names the offending source
        sources[3] = MomentTensorSource(
            position=np.array([-5.0, 0.0, 0.0]), moment=np.eye(3),
            T=0.0, t0=1.0,
        )
        with pytest.raises(ValueError, match=r"-5\."):
            SourceCollection(mesh, tree, sources)
        # no sources at all is still a valid (silent) collection
        assert not SourceCollection(mesh, tree, []).forces_at(0.3).any()

    def test_collection_forces_bitwise_equal_per_source_loop(self):
        """The stacked evaluation (one ``slip_function`` call, one
        ``np.add.at``) keeps the per-source arithmetic and accumulation
        order — also with a callable-driven source in the middle and
        subfaults sharing an element."""
        from repro.mesh import uniform_hex_mesh
        from repro.octree.linear_octree import build_adaptive_octree
        from repro.sources.fault import PointForceSource, SourceCollection

        tree = build_adaptive_octree(lambda c, s: np.full(len(c), 0.25), max_level=4)
        mesh = uniform_hex_mesh(4, L=1000.0)
        sources = list(
            idealized_strike_slip(L=1000.0, n_strike=6, n_dip=3).sources
        )
        sources.insert(5, PointForceSource(
            position=np.array([510.0, 490.0, 300.0]),
            direction=np.array([1.0, 2.0, -1.0]),
            time_function=lambda t: 3e9 * np.sin(7.0 * t),
        ))
        coll = SourceCollection(mesh, tree, sources)
        assert len(np.unique(coll._nodes_flat)) < len(coll._nodes_flat)
        t_max = max(s.T + s.t0 for s in sources if hasattr(s, "T"))
        buf = np.full((mesh.nnode, 3), np.nan)  # forces_at must clear it
        nonzero = 0
        for t in np.linspace(-0.1, 1.1 * t_max, 41):
            want = np.zeros((mesh.nnode, 3))
            for s, n, w in zip(coll.sources, coll.nodes, coll.weights):
                np.add.at(want, n, w * float(s.time_function(t)))
            assert np.array_equal(coll.forces_at(float(t), buf), want)
            assert np.array_equal(coll.forces_at(float(t)), want)
            nonzero += bool(np.any(want))
        assert nonzero > 30


class TestScenarios:
    def test_northridge_basic(self):
        sc = idealized_northridge(L=80_000.0, n_strike=4, n_dip=3)
        assert sc.n_subfaults == 12
        assert sc.total_moment > 1e18  # a sizeable event
        # rupture delays grow away from the hypocenter
        Ts = np.array([s.T for s in sc.sources])
        # the subfault nearest the hypocenter breaks early
        assert Ts.min() < 1.5
        assert Ts.max() > Ts.min()
        assert sc.duration() > Ts.max()

    def test_northridge_in_box(self):
        sc = idealized_northridge(L=80_000.0)
        for s in sc.sources:
            assert np.all(s.position >= 0)
            assert np.all(s.position[:2] <= 80_000.0)
            assert s.position[2] > 0  # buried

    def test_strike_slip_vertical(self):
        sc = idealized_strike_slip(L=10_000.0, n_strike=4, n_dip=2)
        ys = np.array([s.position[1] for s in sc.sources])
        np.testing.assert_allclose(ys, ys[0])  # vertical plane along x
        for s in sc.sources:
            M = s.moment
            np.testing.assert_allclose(np.trace(M), 0.0, atol=1e-3)

    def test_scaled_fault_shrinks(self):
        a = idealized_northridge(L=80_000.0, scale=1.0)
        b = idealized_northridge(L=80_000.0, scale=0.5)
        assert b.total_moment < a.total_moment
