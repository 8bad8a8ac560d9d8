"""The inversion hot path: bound kernel handles and the time-batched
``matrows`` pass (elastic), the assembled scalar stiffness, the
tabulated Gauss-Newton forcing and the stencil-correlation material
accumulation.

Every fast path is held against the slow code it replaced, kept here as
the oracle: bitwise where the arithmetic is unchanged (``matrows`` rows,
the forcing table, the fault closures), to 1e-12 where only the
summation order moved (the assembly, the accumulation), and against
values recorded at a parent commit: to 1e-9 for a whole multiscale
inversion, to 1e-12 for one objective, gradient and ``H v`` of each
problem kind.
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
    AttenuationInverseProblem,
    ElasticInverseProblem,
    FaultLineSource2D,
    MaterialGrid,
    ScalarWaveInverseProblem,
    SourceInverseProblem,
    TotalVariation,
)
from repro.inverse.elastic import _ElasticKernel
from repro.inverse.fault_source import SourceParams
from repro.inverse.problem import Shot, gaussian_time_kernel
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
    kern, _ = _kernel(ncomp)
    per_row = 8 * kern.nelem * kern.nldof * (1 + kern.nmat)
    # row stacks are sized at construction: `block` rows per stack
    monkeypatch.setattr(numpy_backend, "ROW_BLOCK_BYTES", block * per_row)
    kern, (ca, cb) = _kernel(ncomp)
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


@pytest.mark.parametrize("d", [2, 3])
def test_assembled_stiffness_matches_element_loop(d):
    solver = RegularGridScalarWave((7, 5) if d == 2 else (4, 3, 5), 50.0,
                                   rho=1000.0)
    rng = np.random.default_rng(d)
    mu = rng.uniform(1e9, 3e9, solver.nelem)
    Ke = solver.h ** (d - 2) * mu[:, None, None] * solver.K_ref
    conn, n = solver.conn, solver.nnode

    def element_loop(U):
        out = np.zeros(U.shape)
        np.add.at(out, conn, np.einsum("eij,ejb->eib", Ke, U[conn]))
        return out

    K = solver.bind_K(mu)
    # the batched apply to the identity is the assembled matrix itself
    for U in (np.eye(n), rng.standard_normal((n, 3))):
        want = element_loop(U)
        got = solver.apply_K_bound(K, U)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        for b in range(U.shape[1]):
            col = solver.apply_K_bound(K, np.ascontiguousarray(U[:, b]))
            assert np.array_equal(got[:, b], col)


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
            fault._tabulated(
                lambda ks: fault.perturbation_rows(mu_e, p, dp, ks, dt)
            ),
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
    C_delta = solver.damping_diag_perturbation(state.model, dmu_e)
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
    v = rng.standard_normal(prob.n) * 1e8
    dmu_e = prob.P @ v
    F = prob.incremental_forcing(state, v)
    assert F.shape == state.u[1 : prob.nsteps].shape
    oracle = _oracle_forcing(prob, state, dmu_e)
    assert np.abs(F).max() > 0
    for k in range(1, prob.nsteps):
        assert np.array_equal(F[k - 1], oracle(k)), f"step {k}"


# ----------------------------------------------------- accumulation


def test_blocked_accumulation_matches_three_operand_einsum(section):
    for solver in (
        section[0], RegularGridScalarWave((5, 4, 6), 50.0, rho=1000.0)
    ):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((23, solver.nnode))
        lam = rng.standard_normal((23, solver.nnode))
        want = solver.h ** (solver.d - 2) * np.einsum(
            "tei,ij,tej->e", lam[:, solver.conn], solver.K_ref,
            u[:, solver.conn],
        )
        got = solver.K_material_gradient_batch(u[1:], lam[1:]) + (
            solver.K_material_gradient_batch(u[:1], lam[:1])
        )
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # a reversed view (the adjoint history) contracts the same
        got_r = solver.K_material_gradient_batch(u[::-1], lam[::-1])
        assert np.abs(got_r - want).max() <= 1e-12 * np.abs(want).max()
        # shot batches contract over time and shots
        ub = rng.standard_normal((23, solver.nnode, 3))
        lb = rng.standard_normal((23, solver.nnode, 3))
        want = solver.h ** (solver.d - 2) * np.einsum(
            "teib,ij,tejb->e", lb[:, solver.conn], solver.K_ref,
            ub[:, solver.conn],
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


def test_one_assembly_per_material_and_per_forcing_table(
    section, monkeypatch
):
    prob = _problems(section)["fault"]
    solver = prob.solver
    assembled = []
    real_assemble = solver._assemble

    def counting_assemble(*a, **k):
        assembled.append(1)
        return real_assemble(*a, **k)

    monkeypatch.setattr(solver, "_assemble", counting_assemble)
    m0 = np.full(prob.n, 2.5e9)
    n0 = prob.n_wave_solves
    g, _, state = prob.gradient(m0)
    assert len(assembled) == 1  # forward and adjoint share the step operator
    assert prob.n_wave_solves - n0 == 2
    prob.gn_hessvec(g, state)
    assert len(assembled) == 2  # K(dmu) for the forcing table
    assert prob.n_wave_solves - n0 == 4
    g_ck, _ = prob.gradient_checkpointed(m0, slots=4)
    assert len(assembled) == 2  # forward, replay, adjoint: the same one
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


def _pin_problem(kind):
    """One problem of each kind the least-squares recipe serves, and the
    iterate it is pinned at.  Weights are set so the data, penalty and
    barrier terms each carry a visible share of the gradient."""
    nx, nz, h = 12, 6, 100.0
    solver = RegularGridScalarWave((nx, nz), h, rho=1000.0)
    grid = MaterialGrid((2, 1), (nx * h, nz * h))
    m_true = grid.sample(lambda p: 2.0e9 + 1.5e9 * (p[:, 1] > 300.0))
    mu_e = grid.to_elements(solver) @ m_true
    dt = solver.stable_dt(np.full(solver.nelem, m_true.max()))
    nsteps = 60
    rec = solver.surface_nodes()[::2]
    m0 = np.linspace(2.3e9, 2.9e9, grid.n)

    def shot(ix, hypo_j):
        fault = FaultLineSource2D(solver, ix=ix, jz=range(1, 5))
        p = fault.hypocentral_params(
            hypo_j=hypo_j, rupture_velocity=2000.0, u0=1.0, t0=0.2
        )
        u = solver.march(mu_e, fault.forcing(mu_e, p, dt), nsteps, dt)
        return Shot(receivers=rec, data=u[:, rec], fault=fault,
                    source_params=p)

    if kind == "scalar":
        s = shot(6, 3)
        return ScalarWaveInverseProblem(
            solver, grid, rec, s.data, dt, nsteps, fault=s.fault,
            source_params=s.source_params,
            reg=TotalVariation(grid, 3e-15, eps=1e6),
            barrier_gamma=1e-3, mu_min=1e8,
            residual_smoother=gaussian_time_kernel(dt, 4.0),
        ), m0
    if kind == "multi_shot":
        shots = [shot(6, 3), shot(3, 2), shot(9, 4)]
        return ScalarWaveInverseProblem.multi_shot(
            solver, grid, shots, dt, nsteps
        ), m0
    if kind == "source":
        s = shot(6, 3)
        x = np.concatenate([
            np.linspace(0.8, 1.2, 4), np.linspace(0.25, 0.15, 4),
            s.source_params.T + 0.01,
        ])
        return SourceInverseProblem(
            solver, s.fault, mu_e, rec, s.data, dt, nsteps,
            beta_u0=1.0, beta_t0=2.0, beta_T=3.0, barrier_gamma=1e-2,
        ), x
    if kind == "attenuation":
        alpha = grid.sample(lambda p: 0.5 + 1.5 * (p[:, 0] > 600.0))
        src = solver.node_index((nx // 2, 2))
        fb = np.zeros(solver.nnode)

        def forcing(k):
            fb[src] = dt**2 * 1e6 * np.exp(-(((k * dt - 0.3) / 0.1) ** 2))
            return fb

        u = solver.march(mu_e, forcing, nsteps, dt,
                         alpha=grid.to_elements(solver) @ alpha)
        return AttenuationInverseProblem(
            solver, grid, mu_e, rec, u[:, rec], dt, nsteps, forcing,
            barrier_gamma=3e-11,
        ), np.linspace(0.8, 1.6, grid.n)
    assert kind == "elastic"
    L, n, N = 1000.0, 2, 40
    mesh = uniform_hex_mesh(n, L=L)
    egrid = MaterialGrid((1, 1, 1), (L, L, L))
    rho = np.full(mesh.nelem, 2000.0)
    lam_t = egrid.sample(lambda p: 2.0e9 + 1.0e9 * (p[:, 2] > 500.0))
    mu_t = egrid.sample(lambda p: 1.0e9 + 0.5e9 * (p[:, 2] > 500.0))
    edt = 0.4 * (L / n) / 2000.0 / np.sqrt(3)
    fbuf = np.zeros((mesh.nnode, 3))

    def forces(t):
        fbuf[mesh.nnode // 2] = np.array([1.0, 0.5, 0.3]) * 1e10 * np.exp(
            -(((t - 0.05) / 0.02) ** 2)
        )
        return fbuf

    erec = mesh.surface_nodes(2, 0)
    probe = ElasticInverseProblem(
        mesh, egrid, rho, np.arange(0), np.zeros((N + 1, 0, 3)), edt, N,
        forces,
    )
    u = probe.forward(np.concatenate([lam_t, mu_t])).u
    return ElasticInverseProblem(
        mesh, egrid, rho, erec, u[:, erec], edt, N, forces,
        reg_lambda=1e-22, barrier_gamma=1e-8, mu_min=1e8,
    ), np.concatenate([np.linspace(2.2e9, 2.8e9, egrid.n),
                       np.linspace(1.1e9, 1.4e9, egrid.n)])


#: ``(J, g, gn_hessvec(g, state))`` of each :func:`_pin_problem` as
#: commit ad4fa69 computed them — before the four problems shared one
#: least-squares recipe
PINS_PARENT = {
    "scalar": (
        -0.12544271655742367,
        [
            -7.21156817380766e-13, -1.219188487217388e-12,
            2.9422912665372156e-12, 3.966370126191911e-13,
            1.5514562960305024e-12, 1.1412921155919554e-12,
        ],
        [
            1.5128004131009119e-33, -7.751657461735671e-33,
            3.4616698720504985e-32, 8.049310219613011e-33,
            9.97811341879574e-33, 2.0390820852490012e-33,
        ],
    ),
    "multi_shot": (
        0.011709534072208162,
        [
            3.1582745329115474e-12, -1.1279891995191088e-12,
            2.500304100783812e-11, 5.5555023692939785e-12,
            1.1494501642003701e-11, 4.927657199436324e-12,
        ],
        [
            3.6824450421233123e-31, 5.956611052375084e-32,
            1.744731279205442e-30, 5.505179463765057e-31,
            4.981163776686541e-31, 1.701220184173071e-31,
        ],
    ),
    "elastic": (
        -3.1788558004687573e-06,
        [
            -1.777393659793376e-17, -1.4219868226621942e-17,
            -8.061466932118946e-18, -5.4491460814574886e-18,
            -1.0514594819922984e-18, 2.3909796707121983e-18,
            8.65578402961585e-18, 1.1116421835033419e-17,
            -6.5232958847173066e-18, -1.1181592730409685e-17,
            1.2095025449262255e-17, -1.6215037968127066e-18,
            3.1547868314405834e-18, -1.4675660514100693e-18,
            2.2398166996227172e-17, 8.267244874973113e-18,
        ],
        [
            -6.766366802238076e-43, -5.490394615723617e-43,
            -1.660024561148479e-43, -8.04857759381895e-44,
            1.4043259987062218e-43, 2.6090599543219625e-43,
            6.464249558785266e-43, 7.232483358392825e-43,
            9.337682578920389e-44, -7.43591112372259e-43,
            1.728187346651376e-42, 3.102843250758318e-43,
            6.6958565442214154e-43, -1.620485275206541e-43,
            2.3010662161986415e-42, 8.81106463755635e-43,
        ],
    ),
    "source": (
        0.0687998586439888,
        [
            -0.01849686218178219, -0.014805803979761117,
            -0.013841211568859058, -0.007592530926524475,
            -0.008547791384435725, -0.019084276810692705,
            -0.025778183838831906, -0.06250509348821408,
            0.06601410302951068, 0.05510669645735771,
            0.04630519980821955, 0.02301575956729862,
        ],
        [
            -0.0013408707674617047, -0.0035664299733068794,
            -0.005840907540247043, 0.0013148949664924118,
            0.04547890475891796, 0.05216662846053968,
            0.055306326506654624, -0.01745007280818387,
            0.11088331437415502, 0.11739950734396089,
            0.11389929010260756, 0.04448653143352188,
        ],
    ),
    "attenuation": (
        9.512011035839654e-12,
        [
            -1.3008423922413435e-11, -2.2395581282670347e-11,
            4.640422352394806e-11, 5.177920898559653e-12,
            -8.946972355429876e-12, -1.3783857692488813e-11,
        ],
        [
            2.948048758199843e-23, -6.082817734306851e-22,
            4.563135070106695e-21, 1.035336334165328e-21,
            5.1585896957385355e-22, -3.0175136018351784e-23,
        ],
    ),
}


@pytest.mark.parametrize("kind", list(PINS_PARENT))
def test_objective_gradient_and_hessvec_match_parent_commit(kind):
    """Every hook keeps its operand order, so on the reference host the
    values are bit-identical to the parent's; 1e-12 of each vector's
    largest entry leaves room for other BLAS builds, and nothing else."""
    prob, m = _pin_problem(kind)
    J_want, g_want, Hv_want = PINS_PARENT[kind]
    g, J, state = prob.gradient(m)
    assert abs(J - J_want) <= 1e-12 * abs(J_want)
    assert prob.objective(m)[0] == J
    for got, want in [(g, g_want), (prob.gn_hessvec(g, state), Hv_want)]:
        want = np.asarray(want)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
