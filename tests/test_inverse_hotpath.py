"""The inversion hot path: bound kernel handles, the time-batched
``matrows`` pass, the tabulated Gauss-Newton forcing and the blocked
material accumulation.

Every fast path is held against the slow code it replaced, kept here as
the oracle: bitwise where the arithmetic is unchanged (``matrows`` rows,
the forcing table, the fault closures), to 1e-12 where only the
summation order moved (the accumulation), and to 1e-9 against values
recorded at the parent commit for a whole multiscale inversion.
"""

import tracemalloc

import numpy as np
import pytest

import repro.backend.numpy_backend as numpy_backend
from repro.backend import get_backend
from repro.core import AntiplaneSetup, MaterialInversion
from repro.fem.hex_element import hex_elastic_reference
from repro.fem.scalar_element import scalar_stiffness_reference
from repro.inverse import (
    FaultLineSource2D,
    MaterialGrid,
    ScalarWaveInverseProblem,
)
from repro.inverse.elastic import _ElasticKernel
from repro.inverse.fault_source import SourceParams
from repro.inverse.problem import Shot
from repro.mesh import uniform_hex_mesh
from repro.solver import RegularGridScalarWave
from repro.sources.slip import dslip_dT, dslip_dt0, slip_function


# ------------------------------------------------------------ matrows


def _kernel(ncomp, shape=(6, 5)):
    """(kernel, coefficient tuples a/b) — scalar on a 2D grid, or the
    elastic two-matrix kernel on a small hex mesh."""
    rng = np.random.default_rng(ncomp)
    if ncomp == 1:
        grid = RegularGridScalarWave(shape, 1.0, rho=1.0)
        conn, nnode = grid.conn, grid.nnode
        mats = (scalar_stiffness_reference(2),)
    else:
        mesh = uniform_hex_mesh(2, L=1.0)
        conn, nnode = mesh.conn, mesh.nnode
        mats = hex_elastic_reference()
    kern = get_backend().element_kernel(conn, mats, nnode, ncomp=ncomp)
    coefs = [
        tuple(rng.random(len(conn)) + 1.0 for _ in mats) for _ in range(2)
    ]
    return kern, coefs


@pytest.mark.parametrize("ncomp", [1, 3])
@pytest.mark.parametrize("block", [1, 4])
def test_matrows_rows_bitwise_equal_matvec(ncomp, block, monkeypatch):
    kern, (ca, cb) = _kernel(ncomp)
    per_row = 8 * kern.nelem * kern.nldof * (1 + kern.nmat)
    monkeypatch.setattr(numpy_backend, "ROW_BLOCK_BYTES", block * per_row)
    ha, hb = kern.bind(ca), kern.bind(cb)
    rng = np.random.default_rng(0)
    out1 = np.empty(kern.ndof)
    for T in (1, block, block + 3):
        rows = rng.standard_normal((T + 2, kern.ndof))[1:-1]  # a history slice
        for h in (ha, hb, ha):  # materials alternate through one kernel
            got = kern.matrows(rows, np.full((T, kern.ndof), np.nan), h)
            for t in range(T):
                assert np.array_equal(got[t], kern.matvec(rows[t], out1, h))
    # matmat is the same pass on the transposed block
    U = rng.standard_normal((kern.ndof, 5))
    got = kern.matmat(U, np.empty_like(U), hb)
    for b in range(5):
        col = np.ascontiguousarray(U[:, b])
        assert np.array_equal(got[:, b], kern.matvec(col, out1, hb))
    with pytest.raises(ValueError):
        kern.matrows(rows[:, :-1], np.empty((T, kern.ndof - 1)), ha)
    with pytest.raises(ValueError):
        kern.matrows(rows, np.empty((T, kern.ndof)).T.copy().T, ha)


def test_alternating_handles_fold_nothing_and_allocate_nothing(monkeypatch):
    kern, (ca, cb) = _kernel(1, shape=(40, 30))
    ha, hb = kern.bind(ca), kern.bind(cb)
    folds = []
    monkeypatch.setattr(
        kern.plan, "fold", lambda *a, **k: folds.append(1)
    )
    rng = np.random.default_rng(1)
    u = rng.standard_normal(kern.ndof)
    rows = rng.standard_normal((7, kern.ndof))
    out, out_rows = np.empty(kern.ndof), np.empty_like(rows)
    U = rng.standard_normal((kern.ndof, 3))
    out2 = np.empty_like(U)

    def cycle():
        for h in (ha, hb):
            kern.matvec(u, out, h)
            kern.matrows(rows, out_rows, h)
            kern.matmat(U, out2, h)

    cycle()  # sizes the row-block and batch workspace
    tracemalloc.start()
    for _ in range(5):
        cycle()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert not folds
    assert peak < 8 * kern.ndof // 2, f"steady state allocated {peak} B"


# ------------------------------------------------- forcing tables


@pytest.fixture(scope="module")
def section():
    nx, nz = 16, 8
    h = 100.0
    solver = RegularGridScalarWave((nx, nz), h, rho=1000.0)
    grid = MaterialGrid((4, 2), (nx * h, nz * h))
    m_true = grid.sample(lambda p: 2.0e9 + 1.5e9 * (p[:, 1] > 400.0))
    mu_e = grid.to_elements(solver) @ m_true
    dt = solver.stable_dt(np.full(solver.nelem, m_true.max()))
    return solver, grid, mu_e, dt


def _old_fault_closure(fault, amp_of_t, dt):
    """The per-step closure body every fault forcing used to repeat."""

    def f(k):
        out = np.zeros(fault.solver.nnode)
        np.add.at(
            out,
            fault.nodes.ravel(),
            (amp_of_t(k * dt)[:, None] * fault.w[None, :]).ravel() * dt**2,
        )
        return out

    return f


def _make_fault(solver, ix, hypo_j):
    fault = FaultLineSource2D(solver, ix=ix, jz=range(2, 6))
    params = fault.hypocentral_params(
        hypo_j=hypo_j, rupture_velocity=2000.0, u0=1.3, t0=0.3
    )
    return fault, params


def test_fault_closures_bitwise_equal_per_step_oracle(section):
    solver, _, mu_e, dt = section
    fault, p = _make_fault(solver, 8, 4)
    dp = SourceParams(
        u0=np.linspace(0.1, 0.4, fault.ns),
        t0=np.linspace(-0.02, 0.03, fault.ns),
        T=np.linspace(0.01, -0.01, fault.ns),
    )
    mu_s = mu_e[fault.elems]
    pairs = [
        (
            fault.forcing(mu_e, p, dt),
            lambda t: mu_s * p.u0 * slip_function(t, p.T, p.t0),
        ),
        (
            fault.forcing_from_param_perturbation(mu_e, p, dp, dt),
            lambda t: (
                mu_s * dp.u0 * slip_function(t, p.T, p.t0)
                + mu_s * p.u0 * dslip_dt0(t, p.T, p.t0) * dp.t0
                + mu_s * p.u0 * dslip_dT(t, p.T, p.t0) * dp.T
            ),
        ),
    ]
    for new, amp in pairs:
        old = _old_fault_closure(fault, amp, dt)
        live = 0
        # out of order, and past the first 256-step table
        for k in [5, 0, 300, *range(1, 40), 299, 700]:
            want = old(k)
            assert np.array_equal(new(k), want)
            live += bool(want.any())
        assert live > 30


def _oracle_forcing(prob, state, dmu_e):
    """The per-step incremental-forcing closures ``gn_hessvec`` used to
    hand to march (single- and multi-shot forms)."""
    solver, dt, u = prob.solver, prob.dt, state.u
    C_delta = solver.damping_diag_perturbation(state.mu_e, dmu_e)
    fault_fs = [
        _old_fault_closure(
            s.fault,
            lambda t, s=s: dmu_e[s.fault.elems] * s.source_params.u0
            * slip_function(t, s.source_params.T, s.source_params.t0),
            dt,
        )
        if s.fault is not None
        else None
        for s in prob.shots
    ]

    def single(k):
        f = -0.5 * dt * C_delta * (u[k + 1] - u[k - 1])
        f -= dt**2 * solver.apply_K(dmu_e, u[k])
        if fault_fs[0] is not None:
            f += fault_fs[0](k)
        return f

    def multi(k):
        fblock = np.subtract(u[k + 1], u[k - 1])
        np.multiply(fblock, (-0.5 * dt) * C_delta[:, None], out=fblock)
        np.subtract(fblock, dt**2 * solver.apply_K(dmu_e, u[k]), out=fblock)
        for s, ff in enumerate(fault_fs):
            if ff is not None:
                fblock[:, s] += ff(k)
        return fblock

    return single if u.ndim == 2 else multi


def _problems(section):
    """Single-shot with a fault, single-shot without, and two shots."""
    solver, grid, mu_e, dt = section
    nsteps = 90
    rec = solver.surface_nodes()[::2]
    shots = []
    for ix, hj in [(8, 4), (4, 3)]:
        fault, p = _make_fault(solver, ix, hj)
        u = solver.march(mu_e, fault.forcing(mu_e, p, dt), nsteps, dt)
        shots.append(
            Shot(receivers=rec, data=u[:, rec], fault=fault, source_params=p)
        )
    s0 = shots[0]
    node = solver.node_index((5, 3))
    pulse = np.zeros(solver.nnode)

    def point_source(k):
        pulse[node] = dt**2 * 1e9 * np.exp(-((k - 20) / 6.0) ** 2)
        return pulse

    u = solver.march(mu_e, point_source, nsteps, dt)
    return {
        "fault": ScalarWaveInverseProblem(
            solver, grid, rec, s0.data, dt, nsteps,
            fault=s0.fault, source_params=s0.source_params,
        ),
        "no fault": ScalarWaveInverseProblem(
            solver, grid, rec, 0.9 * u[:, rec], dt, nsteps,
            extra_forcing=point_source,
        ),
        "two shots": ScalarWaveInverseProblem.multi_shot(
            solver, grid, shots, dt, nsteps
        ),
    }


@pytest.mark.parametrize("which", ["fault", "no fault", "two shots"])
def test_gn_forcing_table_bitwise_equals_per_step_closure(section, which):
    prob = _problems(section)[which]
    rng = np.random.default_rng(3)
    state = prob.forward(np.full(prob.n, 2.5e9))
    dmu_e = prob.P @ (rng.standard_normal(prob.n) * 1e8)
    F = prob._incremental_forcing(state, dmu_e)
    assert F.shape == state.u[1 : prob.nsteps].shape
    oracle = _oracle_forcing(prob, state, dmu_e)
    assert np.abs(F).max() > 0
    for k in range(1, prob.nsteps):
        assert np.array_equal(F[k - 1], oracle(k)), f"step {k}"


# ----------------------------------------------------- accumulation


def test_blocked_accumulation_matches_three_operand_einsum(
    section, monkeypatch
):
    solver = section[0]
    per_row = 8 * solver.nelem * 4 * 2
    monkeypatch.setattr(numpy_backend, "ROW_BLOCK_BYTES", 5 * per_row)
    solver = RegularGridScalarWave(solver.shape, solver.h, rho=solver.rho)
    rng = np.random.default_rng(4)
    u = rng.standard_normal((23, solver.nnode))
    lam = rng.standard_normal((23, solver.nnode))
    want = solver.h ** (solver.d - 2) * np.einsum(
        "tei,ij,tej->e", lam[:, solver.conn], solver.K_ref, u[:, solver.conn]
    )
    got = solver.K_material_gradient_batch(u[1:], lam[1:]) + (
        solver.K_material_gradient_batch(u[:1], lam[:1])
    )
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # one row is the unbatched derivative
    one = solver.K_material_gradient(u[3], lam[3])
    got1 = solver.K_material_gradient_batch(u[3:4], lam[3:4])
    assert np.abs(got1 - one).max() <= 1e-12 * np.abs(one).max()
    # shot batches contract over time and shots
    ub = rng.standard_normal((23, solver.nnode, 3))
    lb = rng.standard_normal((23, solver.nnode, 3))
    want = solver.h ** (solver.d - 2) * np.einsum(
        "teib,ij,tejb->e", lb[:, solver.conn], solver.K_ref, ub[:, solver.conn]
    )
    got = solver.K_material_gradient_batch(ub, lb)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_elastic_accumulation_matches_three_operand_einsum():
    mesh = uniform_hex_mesh(2, L=300.0)
    kern = _ElasticKernel(mesh)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((11, mesh.nnode, 3))
    adj = rng.standard_normal((11, mesh.nnode, 3))
    U = u[:, mesh.conn].reshape(11, mesh.nelem, 24)
    A = adj[:, mesh.conn].reshape(11, mesh.nelem, 24)
    K_l, K_m = hex_elastic_reference()
    g_l, g_m = kern.K_material_gradient_batch(u, adj)
    for got, K in [(g_l, K_l), (g_m, K_m)]:
        want = mesh.elem_h * np.einsum("tei,ij,tej->e", A, K, U)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # the time-batched apply is the per-step apply, row by row
    lam_e = rng.random(mesh.nelem) + 2.0
    mu_e = rng.random(mesh.nelem) + 1.0
    K = kern.bind(lam_e, mu_e)
    rows = kern.apply_rows(K, u, np.empty_like(u))
    for t in range(len(u)):
        one = kern.apply(K, u[t], np.empty((mesh.nnode, 3)))
        assert np.array_equal(rows[t], one)


# ------------------------------------------------------------ counts


def test_one_fold_per_march_and_per_forcing_table(section, monkeypatch):
    prob = _problems(section)["fault"]
    plan = prob.solver._kernel.plan
    folds = []
    real_fold = plan.fold

    def counting_fold(*a, **k):
        folds.append(1)
        return real_fold(*a, **k)

    monkeypatch.setattr(plan, "fold", counting_fold)
    m0 = np.full(prob.n, 2.5e9)
    n0 = prob.n_wave_solves
    g, _, state = prob.gradient(m0)
    assert len(folds) == 2  # forward march + adjoint march
    assert prob.n_wave_solves - n0 == 2
    prob.gn_hessvec(g, state)
    assert len(folds) == 5  # K(dmu) table + two more marches
    assert prob.n_wave_solves - n0 == 4
    g_ck, _ = prob.gradient_checkpointed(m0, slots=4)
    assert len(folds) == 8  # forward, replay, adjoint: one fold each
    np.testing.assert_allclose(g_ck, g, rtol=1e-9)


# ------------------------------------------ pinned at the parent commit

#: ``m_final`` of the inversion below as commit 0df9fdd computed it
M_FINAL_PARENT = np.array([
    2.579103781640545, 2.641313274215375, 2.4174687458925024,
    2.4157261289157432, 2.5290321395051696, 1.979893064724274,
    1.882752738387104, 2.306165588988489, 2.2980196011174145,
    2.605642046622811, 1.9927965971300434, 0.9171812145643403,
    2.5717578270841877, 2.559749711344655, 2.760284013838742,
    2.328319270697413, 0.3407933726637843, 2.1262720274062885,
    2.773659228363462, 2.9517400324109904, 0.5382632285008442,
    1.4733616416472899, 3.074792787612157, 3.2061402506336307,
    2.7358979157418193, 1.0494882341449512, 2.2405802550921847,
    3.9874621186842876, 2.713969309055945, 2.136038433545012,
    1.9638063190076567, 1.7205384409183009, 2.982248421018858,
    2.25110446846037, 1.987621714570948, 1.4340628524693255,
    2.4438935526130123, 2.81027033142197, 2.39360160428656,
    2.295866302866868, 2.094358767554769, 2.6419385754352565,
    2.417358112285246, 2.3615215663652616, 2.551056859128488,
])


def test_three_level_inversion_matches_parent_commit():
    def vs(p):
        lens = ((p[:, 0] - 3.0) / 2.0) ** 2 + (p[:, 1] / 1.5) ** 2 < 1.0
        return 1.5 + 0.8 * (p[:, 1] > 2.0) - 0.5 * lens

    setup = AntiplaneSetup(
        vs, lengths=(8.0, 4.0), wave_shape=(24, 12), n_receivers=12,
        t_end=5.0, noise=0.02,
    )
    res = MaterialInversion(setup).run(
        n_levels=3, newton_per_level=3, cg_maxiter=8, m_init=3.0
    )
    levels = res.multiscale.levels
    assert [r.newton_iterations for _, r in levels] == [3, 3, 3]
    assert res.multiscale.total_cg_iterations == 15
    scale = np.abs(M_FINAL_PARENT).max()
    assert np.abs(res.m_final - M_FINAL_PARENT).max() <= 1e-9 * scale
