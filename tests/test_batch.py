"""Batched multi-scenario execution must be *bit-identical* per column.

The batching tentpole's contract: advancing B scenarios through one
fused level-3 time loop produces, for every column, exactly the bits
the serial single-RHS run produces — same gather, same row-stacked
GEMM accumulation order, same slot-ordered scatter, same elementwise
updates.  These tests pin that contract at every layer: the element
kernel (``matmat`` vs ``matvec``), the scalar and
elastic ensemble time loops, the multi-shot inverse problem (one
batched forward + one batched adjoint regardless of shot count), and
the shot-sharded distributed path on both transports.
"""

import tracemalloc

import numpy as np
import pytest

from repro.fem.assembly import ElasticOperator
from repro.inverse import (
    FaultLineSource2D,
    MaterialGrid,
    ScalarWaveInverseProblem,
    Shot,
)
from repro.io.seismogram import ReceiverArray
from repro.materials import HomogeneousMaterial
from repro.mesh import extract_mesh, rcb_partition, uniform_hex_mesh
from repro.octree import build_adaptive_octree
from repro.parallel import (
    DistributedWaveSolver,
    ProcWorld,
    SimWorld,
    recommend_sharding,
)
from repro.solver import (
    ElasticWaveSolver,
    RegularGridScalarWave,
    batched_forcing,
)
from repro.sources import MomentTensorSource
from repro.sources.fault import SourceCollection

L = 1000.0
MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)


def make_mesh(n=4, max_level=3):
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=max_level
    )
    return tree, extract_mesh(tree, L=L)


def make_sources(mesh, tree, B):
    out = []
    for b in range(B):
        src = MomentTensorSource(
            position=np.array([400.0 + 50.0 * b, 500.0, 450.0 + 30.0 * b]),
            moment=1e12 * np.eye(3),
            T=0.02,
            t0=0.08 + 0.01 * b,
        )
        out.append(SourceCollection(mesh, tree, [src]))
    return out


# ---------------------------------------------------- kernel level


class TestKernelMatmat:
    def test_matmat_bitwise_per_column(self):
        _, mesh = make_mesh()
        rng = np.random.default_rng(0)
        lam = rng.uniform(1.0, 3.0, mesh.nelem)
        mu = rng.uniform(0.5, 2.0, mesh.nelem)
        op = ElasticOperator(mesh.conn, mesh.elem_h, lam, mu, mesh.nnode)
        B = 5
        U = np.ascontiguousarray(rng.standard_normal((mesh.nnode, 3, B)))
        out = op.matmat(U)
        for b in range(B):
            ref = op.matvec(np.ascontiguousarray(U[:, :, b]))
            assert np.array_equal(out[:, :, b], ref), f"column {b}"

    def test_matmat_zero_allocation_warm(self):
        _, mesh = make_mesh()
        lam = np.full(mesh.nelem, 2.0)
        mu = np.full(mesh.nelem, 1.0)
        op = ElasticOperator(mesh.conn, mesh.elem_h, lam, mu, mesh.nnode)
        U = np.ones((mesh.nnode, 3, 8))
        out = np.empty_like(U)
        op.matmat(U, out=out)  # warmup sizes the batch workspace
        tracemalloc.start()
        for _ in range(5):
            op.matmat(U, out=out)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 2048, f"warm matmat allocated {peak} B"


@pytest.mark.parametrize("split", ["none", "third", "all"])
def test_phased_matvec_equals_plain(split):
    """Interface + interior phases partition the element loop, so they
    sum to the single pass to roundoff and are bit-reproducible — at
    an empty interface, a proper split and an empty interior."""
    _, mesh = make_mesh()
    k = {"none": 0, "third": mesh.nelem // 3, "all": mesh.nelem}[split]
    rng = np.random.default_rng(1)
    op = ElasticOperator(
        mesh.conn, mesh.elem_h,
        rng.uniform(1.0, 3.0, mesh.nelem), rng.uniform(0.5, 2.0, mesh.nelem),
        mesh.nnode, split_elems=k,
    )
    u = rng.standard_normal((mesh.nnode, 3))
    full = op.matvec(u)

    def phased():
        out = np.empty((mesh.nnode, 3))
        op.matvec_interface(u, out)
        return op.matvec_interior_acc(u, out)

    first = phased()
    np.testing.assert_allclose(first, full, rtol=1e-12, atol=1e-12)
    assert np.array_equal(phased(), first)


def test_strided_input_rejected_not_copied():
    """The old silent ``ascontiguousarray`` copy is gone: a strided
    field is a caller bug and must raise."""
    _, mesh = make_mesh(2, max_level=2)
    op = ElasticOperator(
        mesh.conn, mesh.elem_h,
        np.ones(mesh.nelem), np.ones(mesh.nelem), mesh.nnode,
    )
    bad = np.zeros((mesh.nnode, 6))[:, ::2]
    with pytest.raises(ValueError, match="contiguous"):
        op.matvec(bad)


# ------------------------------------------------ scalar ensemble march


def test_scalar_batched_march_bitwise():
    solver = RegularGridScalarWave((16, 8), 100.0, rho=1000.0)
    rng = np.random.default_rng(2)
    mu = rng.uniform(2e9, 4e9, solver.nelem)
    dt = solver.stable_dt(mu)
    nsteps = 60
    src = [5, 40, 77]

    def forcing_for(b):
        def forcing(k):
            f = np.zeros(solver.nnode)
            f[src[b]] = dt**2 * np.sin(0.3 * k + b)
            return f
        return forcing

    cols = [forcing_for(0), None, forcing_for(2)]
    batched = solver.march(
        mu, batched_forcing(cols, solver.nnode), nsteps, dt,
        batch=len(cols),
    )
    for b, fn in enumerate(cols):
        serial = solver.march(
            mu, fn if fn is not None else (lambda k: None),
            nsteps, dt,
        )
        assert np.array_equal(batched[:, :, b], serial), f"column {b}"


def test_scalar_batched_march_with_initial_states_and_alpha():
    solver = RegularGridScalarWave((12, 6), 80.0, rho=900.0)
    rng = np.random.default_rng(3)
    mu = rng.uniform(1e9, 2e9, solver.nelem)
    alpha = rng.uniform(0.0, 0.5, solver.nelem)
    dt = solver.stable_dt(mu)
    B = 3
    x0 = rng.standard_normal((solver.nnode, B))
    x1 = rng.standard_normal((solver.nnode, B))
    # batch inferred from the 2D initial states
    batched = solver.march(
        mu, lambda k: None, 40, dt, x0=x0, x1=x1, alpha=alpha
    )
    assert batched.shape == (41, solver.nnode, B)
    for b in range(B):
        serial = solver.march(
            mu, lambda k: None, 40, dt,
            x0=x0[:, b], x1=x1[:, b], alpha=alpha,
        )
        assert np.array_equal(batched[:, :, b], serial)


def test_march_coefficient_cache_reused_and_invalidated():
    solver = RegularGridScalarWave((8, 4), 50.0, rho=1000.0)
    mu = np.full(solver.nelem, 2e9)
    dt = solver.stable_dt(mu)
    inv1, am1 = solver._march_coeffs(mu, dt, None)
    inv2, am2 = solver._march_coeffs(mu.copy(), dt, None)
    assert inv1 is inv2 and am1 is am2  # same iterate -> cached arrays
    inv3, _ = solver._march_coeffs(mu * 1.01, dt, None)
    assert inv3 is not inv1  # material changed -> recompute


# ------------------------------------------------ elastic ensemble run


class TestElasticRunBatch:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stacey_c1": False},
            {"stacey_c1": True},
            {"stacey_c1": False, "damping_ratio": 0.02},
        ],
        ids=["lysmer", "stacey_c1", "rayleigh"],
    )
    def test_bitwise_vs_looped_serial(self, kwargs):
        tree, mesh = make_mesh()
        solver = ElasticWaveSolver(mesh, tree, MAT, **kwargs)
        forces = make_sources(mesh, tree, 3)
        rec = ReceiverArray(
            mesh, np.array([[500.0, 500.0, 0.0], [250.0, 750.0, 0.0]])
        )
        t_end = 0.15
        state_b = {}
        state_s = {}

        def cap(store, b=None):
            def cb(k, t, u):
                store[k] = u.copy() if b is None else u[:, :, b].copy()
            return cb

        seis_b = solver.run_batch(
            forces, t_end, receivers=rec, callback=cap(state_b)
        )
        assert len(seis_b) == 3
        for b, fc in enumerate(forces):
            seis = solver.run(fc, t_end, receivers=rec)
            assert np.array_equal(seis_b[b].data, seis.data), f"shot {b}"
            assert np.abs(seis.data).max() > 0
        # interior trajectory, not just the receiver rows
        solver.run(forces[1], t_end, callback=cap(state_s))
        for k in state_s:
            assert np.array_equal(state_b[k][:, :, 1], state_s[k])

    def test_per_scenario_receivers(self):
        tree, mesh = make_mesh()
        solver = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)
        forces = make_sources(mesh, tree, 2)
        recs = [
            ReceiverArray(mesh, np.array([[500.0, 500.0, 0.0]])),
            ReceiverArray(mesh, np.array([[125.0, 625.0, 0.0]])),
        ]
        seis = solver.run_batch(forces, 0.1, receivers=recs)
        for b in range(2):
            ref = solver.run(forces[b], 0.1, receivers=recs[b])
            assert np.array_equal(seis[b].data, ref.data)

    def test_width_one_batch_runs_the_solo_schedule(self, monkeypatch):
        # 96 % of the service's dispatches are B = 1: they must not pay
        # the (B,) layout for a column that is bitwise a solo run anyway
        tree, mesh = make_mesh()
        solver = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)
        [force] = make_sources(mesh, tree, 1)
        rec = ReceiverArray(mesh, np.array([[500.0, 500.0, 0.0]]))
        calls = {"matvec": 0, "matmat": 0}
        for name in calls:
            def counted(*a, _real=getattr(solver.K, name), _name=name, **kw):
                calls[_name] += 1
                return _real(*a, **kw)
            monkeypatch.setattr(solver.K, name, counted)
        [seis] = solver.run_batch([force], 0.1, receivers=rec)
        nsteps = seis.data.shape[2]
        assert calls == {"matvec": nsteps, "matmat": 0}
        assert np.array_equal(
            seis.data, solver.run(force, 0.1, receivers=rec).data
        )
        # callback= keeps the (nnode, 3, B) block contract, so it stays
        # on the batched schedule
        shapes = set()
        solver.run_batch(
            [force], 0.1, callback=lambda k, t, u: shapes.add(u.shape)
        )
        assert shapes == {(mesh.nnode, 3, 1)}


# ------------------------------------------------- multi-shot inverse


@pytest.fixture(scope="module")
def multishot_setup():
    nx, nz = 16, 8
    h = 100.0
    solver = RegularGridScalarWave((nx, nz), h, rho=1000.0)
    grid = MaterialGrid((4, 2), (nx * h, nz * h))
    m_true = grid.sample(lambda p: 2.0e9 + 1.5e9 * (p[:, 1] > 400.0))
    mu_e = grid.to_elements(solver) @ m_true
    dt = solver.stable_dt(np.full(solver.nelem, m_true.max()))
    nsteps = 120
    shots = []
    for ix, hj in [(nx // 2, 4), (nx // 4, 3), (3 * nx // 4, 5)]:
        fault = FaultLineSource2D(solver, ix=ix, jz=range(2, 6))
        params = fault.hypocentral_params(
            hypo_j=hj, rupture_velocity=2000.0, u0=1.0, t0=0.3
        )
        u = solver.march(
            mu_e, fault.forcing(mu_e, params, dt), nsteps, dt, store=True
        )
        rec = solver.surface_nodes()[::2]
        shots.append(
            Shot(
                receivers=rec, data=u[:, rec],
                fault=fault, source_params=params,
            )
        )
    return solver, grid, shots, dt, nsteps


class TestMultiShotInverse:
    def test_gradient_is_sum_of_singles_in_two_solves(self, multishot_setup):
        solver, grid, shots, dt, nsteps = multishot_setup
        prob = ScalarWaveInverseProblem.multi_shot(
            solver, grid, shots, dt, nsteps
        )
        singles = [
            ScalarWaveInverseProblem(
                solver, grid, s.receivers, s.data, dt, nsteps,
                fault=s.fault, source_params=s.source_params,
            )
            for s in shots
        ]
        m0 = np.full(grid.n, 2.5e9)
        n0 = prob.n_wave_solves
        g, J, state = prob.gradient(m0)
        # ONE batched forward + ONE batched adjoint, whatever len(shots)
        assert prob.n_wave_solves - n0 == 2
        results = [p.gradient(m0) for p in singles]
        np.testing.assert_allclose(
            J, sum(r[1] for r in results), rtol=1e-9
        )
        np.testing.assert_allclose(
            g, sum(r[0] for r in results), rtol=1e-9
        )

    def test_gradient_matches_fd(self, multishot_setup):
        solver, grid, shots, dt, nsteps = multishot_setup
        prob = ScalarWaveInverseProblem.multi_shot(
            solver, grid, shots, dt, nsteps
        )
        m0 = np.full(grid.n, 2.5e9)
        g, _, _ = prob.gradient(m0)
        eps = 2.5e5
        for i in [0, 3, grid.n - 1]:
            mp = m0.copy()
            mp[i] += eps
            mm = m0.copy()
            mm[i] -= eps
            fd = (prob.objective(mp)[0] - prob.objective(mm)[0]) / (2 * eps)
            assert abs(fd - g[i]) <= 1e-5 * max(abs(fd), 1e-30)

    def test_gn_hessvec_is_sum_of_singles_in_two_solves(
        self, multishot_setup
    ):
        solver, grid, shots, dt, nsteps = multishot_setup
        prob = ScalarWaveInverseProblem.multi_shot(
            solver, grid, shots, dt, nsteps
        )
        singles = [
            ScalarWaveInverseProblem(
                solver, grid, s.receivers, s.data, dt, nsteps,
                fault=s.fault, source_params=s.source_params,
            )
            for s in shots
        ]
        m0 = np.full(grid.n, 2.5e9)
        _, _, state = prob.gradient(m0)
        states = [p.gradient(m0)[2] for p in singles]
        rng = np.random.default_rng(4)
        v = rng.standard_normal(grid.n)
        n0 = prob.n_wave_solves
        Hv = prob.gn_hessvec(v, state)
        assert prob.n_wave_solves - n0 == 2
        Hv_sum = sum(p.gn_hessvec(v, st) for p, st in zip(singles, states))
        np.testing.assert_allclose(Hv, Hv_sum, rtol=1e-8)

    def test_single_shot_list_equals_legacy_constructor(
        self, multishot_setup
    ):
        solver, grid, shots, dt, nsteps = multishot_setup
        s = shots[0]
        legacy = ScalarWaveInverseProblem(
            solver, grid, s.receivers, s.data, dt, nsteps,
            fault=s.fault, source_params=s.source_params,
        )
        listed = ScalarWaveInverseProblem.multi_shot(
            solver, grid, [s], dt, nsteps
        )
        m0 = np.full(grid.n, 2.4e9)
        g1, J1, _ = legacy.gradient(m0)
        g2, J2, _ = listed.gradient(m0)
        np.testing.assert_allclose(J2, J1, rtol=1e-12)
        np.testing.assert_allclose(g2, g1, rtol=1e-12)

    def test_shots_exclusive_with_legacy_args(self, multishot_setup):
        solver, grid, shots, dt, nsteps = multishot_setup
        with pytest.raises(ValueError):
            ScalarWaveInverseProblem(
                solver, grid, shots[0].receivers, shots[0].data, dt, nsteps,
                shots=shots,
            )


# ------------------------------------------------ shot-sharded parallel


class PointForce:
    """Picklable point force (worker processes unpickle it by value)."""

    def __init__(self, node, nnode, t0=0.02):
        self.node = node
        self.nnode = nnode
        self.t0 = t0

    def __call__(self, t, out=None):
        b = np.zeros((self.nnode, 3)) if out is None else out
        b.fill(0.0)
        b[self.node, 2] = 1e9 * np.exp(-(((t - self.t0) / 0.008) ** 2))
        return b


class TestShotSharding:
    def _problem(self):
        mesh = uniform_hex_mesh(4)
        forces = [
            PointForce(mesh.nnode // 2, mesh.nnode),
            PointForce(mesh.nnode // 3, mesh.nnode, t0=0.03),
            PointForce(mesh.nnode // 5, mesh.nnode, t0=0.01),
        ]
        return mesh, rcb_partition(mesh.elem_centers, 2), forces

    def test_simworld_matches_single_shot_runs(self):
        mesh, parts, forces = self._problem()
        world = SimWorld(2)
        solver = DistributedWaveSolver(mesh, MAT, parts, world)
        t_end = 24.5 * solver.dt
        u = solver.run_shots(forces, t_end)
        assert u.shape == (3, mesh.nnode, 3)
        assert np.abs(u).max() > 0
        for b, f in enumerate(forces):
            ub = solver.run_shots([f], t_end)
            assert np.array_equal(ub[0], u[b]), f"shot {b}"

    def test_transports_bit_identical(self):
        mesh, parts, forces = self._problem()
        sim = SimWorld(2)
        solver = DistributedWaveSolver(mesh, MAT, parts, sim)
        t_end = 24.5 * solver.dt
        u_sim = solver.run_shots(forces, t_end)
        with ProcWorld(2) as proc:
            dist = DistributedWaveSolver(
                mesh, MAT, parts, proc, dt=solver.dt
            )
            u_proc = dist.run_shots(forces, t_end)
            # the whole point: zero per-step boundary traffic (only
            # the setup-time mass/damping exchange is accounted)
            per_step = [
                s.messages_sent for s in proc.stats
            ]
        assert np.array_equal(u_sim, u_proc)
        setup_msgs = [s.messages_sent for s in sim.stats]
        assert per_step == setup_msgs

    def test_matches_serial_elastic_solver(self):
        tree, mesh = make_mesh()
        serial = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)
        forces = [
            PointForce(mesh.nnode // 2, mesh.nnode),
            PointForce(mesh.nnode // 3, mesh.nnode, t0=0.03),
        ]
        nsteps = 20
        refs = []
        for f in forces:
            out = {}

            def cb(k, t, u, out=out):
                if k == nsteps:
                    out["u"] = u.copy()

            serial.run(f, (nsteps + 0.5) * serial.dt, callback=cb)
            refs.append(out["u"])
        world = SimWorld(2)
        dist = DistributedWaveSolver(
            mesh, MAT, rcb_partition(mesh.elem_centers, 2), world,
            dt=serial.dt,
        )
        u = dist.run_shots(forces, (nsteps - 0.5) * serial.dt)
        for b, ref in enumerate(refs):
            scale = np.abs(ref).max()
            assert scale > 0
            np.testing.assert_allclose(
                u[b], ref, rtol=1e-9, atol=1e-12 * scale
            )

    def test_row_equals_serial_run_batch_column_bitwise(self):
        # a shot slice is marched by the serial solver's update over
        # the same per-column-exact matmat: not close, the same bits
        tree, mesh = make_mesh()
        serial = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)
        forces = [
            PointForce(mesh.nnode // 2, mesh.nnode),
            PointForce(mesh.nnode // 3, mesh.nnode, t0=0.03),
        ]
        nsteps = 20
        out = {}

        def cb(k, t, u):
            if k == nsteps:  # the pre-update state of step k is u^k
                out["u"] = u.copy()

        serial.run_batch(forces, (nsteps + 0.5) * serial.dt, callback=cb)
        dist = DistributedWaveSolver(
            mesh, MAT, rcb_partition(mesh.elem_centers, 2), SimWorld(2),
            dt=serial.dt,
        )
        u = dist.run_shots(forces, (nsteps - 0.5) * serial.dt)
        assert np.abs(u[1]).max() > 0
        assert np.array_equal(u[1], out["u"][:, :, 1])

    def test_recommend_sharding_heuristic(self):
        # plenty of shots, small mesh -> shard the batch
        assert recommend_sharding(1000, 8, 4) == "shots"
        # fewer shots than workers -> some would idle
        assert recommend_sharding(1000, 2, 4) == "domain"
        # mesh too big to replicate per worker
        assert recommend_sharding(10**8, 64, 4) == "domain"
