"""Rayleigh damping as ``beta * (K u)``: one element pass per damped step.

The oracles below build the formula the solver used before — a second
``ElasticOperator`` with ``lam * beta, mu * beta`` applied next to ``K``
every step — inside the test only, and compare both elastic schedules,
solo and batched, against it; the call-count tests pin "exactly one
kernel application and one call of the one ``elastic_update`` per
(cluster) step"; the checkpoint tests pin the ``ku_prev`` payload.
"""

import numpy as np
import pytest

from repro.fem.assembly import ElasticOperator
from repro.io.seismogram import ReceiverArray
from repro.materials import HomogeneousMaterial
from repro.mesh import extract_mesh
from repro.octree import balance_octree, build_adaptive_octree
from repro.solver import ElasticWaveSolver, wave_solver
from repro.solver.checkpoint import CheckpointManager

L = 1000.0
MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
NSTEPS = 24


class Pulse:
    """Gaussian point force on one dof (``amp`` tells scenarios apart)."""

    def __init__(self, node, dt, amp=1e9):
        self.node, self.dt, self.amp = node, dt, amp

    def __call__(self, t, out):
        out.fill(0.0)
        a = (t - 6 * self.dt) / (3 * self.dt)
        out[self.node, 2] = self.amp * np.exp(-a * a)
        return out


@pytest.fixture(scope="module")
def problem():
    """Damped solver on a two-level mesh: the refined corner octant
    hangs on its coarse neighbours and runs in its own LTS cluster."""

    def target(c, s):
        return np.where(np.all(c < 0.5, axis=1), 1.0 / 8, 1.0 / 4)

    tree = balance_octree(build_adaptive_octree(target, max_level=4))
    mesh = extract_mesh(tree, L=L)
    solver = ElasticWaveSolver(mesh, tree, MAT, damping_ratio=0.05)
    assert solver.constraints.n_hanging > 0
    assert solver.beta > 0 and solver.alpha > 0
    plan = solver.lts_plan()
    assert not plan.trivial
    node = int(np.argmin(np.linalg.norm(
        mesh.coords - np.array([400.0, 400.0, 400.0]), axis=1
    )))
    forces = [Pulse(node, solver.dt), Pulse(node + 1, solver.dt, amp=-3e8)]
    rec = ReceiverArray(mesh, np.array(
        [[250.0, 250.0, 0.0], [750.0, 500.0, 0.0], [400.0, 450.0, 0.0]]
    ))
    t_end = (NSTEPS - 0.5) * solver.dt
    return mesh, solver, plan, forces, rec, t_end


def rel_l2(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def oracle_global(solver, force, nsteps, nodes):
    """The two-operator global loop; displacement at ``nodes``."""
    mesh = solver.mesh
    beta = solver.beta
    Kb = ElasticOperator(
        mesh.conn, mesh.elem_h, solver.lam * beta, solver.mu * beta,
        mesh.nnode,
    )
    kb_diag = Kb.diagonal()
    dt = solver.dt
    hd = 0.5 * dt
    m = solver.m[:, None]
    ma = solver.alpha * m
    prev_coef = (hd * ma - m) + hd * solver.C_diag
    B = solver.constraints.B.tocsr()
    BT = B.T.tocsr()
    A = (m + hd * ma) + hd * solver.C_diag + hd * kb_diag
    inv_A_bar = 1.0 / (BT @ A)  # the projected LHS diagonal
    u_prev = np.zeros((mesh.nnode, 3))
    u = np.zeros((mesh.nnode, 3))
    kb_u_prev = np.zeros((mesh.nnode, 3))
    fbuf = np.zeros((mesh.nnode, 3))
    data = np.zeros((len(nodes), 3, nsteps))
    for k in range(nsteps):
        kb_u = Kb.matvec(u)
        r = 2.0 * m * u - dt * dt * solver.K.matvec(u)
        r -= dt * dt * (solver.K_AB @ u.reshape(-1)).reshape(-1, 3)
        r += hd * (kb_diag * u - kb_u) + hd * kb_u_prev
        r += prev_coef * u_prev + dt * dt * force(k * dt, fbuf)
        kb_u_prev = kb_u
        data[:, :, k] = u[nodes]
        u_prev, u = u, B @ ((BT @ r) * inv_A_bar)
    return data


def oracle_lts(solver, plan, force, nsteps, nodes):
    """The two-operator clustered march (a ``beta``-scaled operator per
    level, both over the global state, and each level's coefficients
    and projection block, all built here from the solver's physics);
    displacement at ``nodes`` on the sync columns, where every cluster
    holds the state at the same time."""
    mesh = solver.mesh
    beta = solver.beta
    dt = solver.dt
    kb_diag = beta * solver.K.diagonal()
    B_all = solver.constraints.B.tocsr()
    col_rate = plan.node_rate[solver.constraints.independent]
    levels = []
    for lv in plan.levels:
        e, own, dtc = lv.elems, lv.own_nodes, lv.rate * dt
        hd, m = 0.5 * dtc, solver.m[own][:, None]
        ma, C = solver.alpha * m, solver.C_diag[own]
        A = (m + hd * ma) + hd * C + hd * kb_diag[own]
        B = B_all[own][:, np.nonzero(col_rate == lv.rate)[0]].tocsr()
        BT = B.T.tocsr()
        own_dofs = (own[:, None] * 3 + np.arange(3)).ravel()
        levels.append({
            "rate": lv.rate, "own": own, "interp": lv.interp_nodes,
            "K": ElasticOperator(
                mesh.conn[e], mesh.elem_h[e], solver.lam[e], solver.mu[e],
                mesh.nnode,
            ),
            "Kb": ElasticOperator(
                mesh.conn[e], mesh.elem_h[e], solver.lam[e] * beta,
                solver.mu[e] * beta, mesh.nnode,
            ),
            "kab": solver.K_AB[own_dofs] * (-(dtc * dtc)),
            "kb_prev": np.zeros((len(own), 3)),
            "prev_coef": (hd * ma - m) + hd * C,
            "B": B, "BT": BT, "inv_A_bar": 1.0 / (BT @ A),
        })
    u_prev = np.zeros((mesh.nnode, 3))
    u = np.zeros((mesh.nnode, 3))
    fbuf = np.zeros((mesh.nnode, 3))
    sync = range(0, nsteps, plan.max_rate)
    data = np.zeros((len(nodes), 3, len(sync)))
    for j in range(0, nsteps, plan.min_rate):
        if j % plan.max_rate == 0:
            data[:, :, j // plan.max_rate] = u[nodes]
        b = force(j * dt, fbuf)
        for lev in levels:
            if j % lev["rate"]:
                continue
            own, interp = lev["own"], lev["interp"]
            dtc = lev["rate"] * dt
            ut = u.copy()
            if len(interp) and j % (2 * lev["rate"]):
                ut[interp] = 0.5 * (u_prev[interp] + u[interp])
            elif len(interp):
                ut[interp] = u_prev[interp]
            kb_u = lev["Kb"].matvec(ut)[own]
            r = 2.0 * solver.m[own][:, None] * u[own]
            r -= dtc * dtc * lev["K"].matvec(ut)[own]
            r += (lev["kab"] @ ut.reshape(-1)).reshape(-1, 3)
            r += 0.5 * dtc * (kb_diag[own] * u[own] - kb_u)
            r += 0.5 * dtc * lev["kb_prev"]
            r += lev["prev_coef"] * u_prev[own] + dtc * dtc * b[own]
            lev["kb_prev"] = kb_u
            unew = lev["B"] @ ((lev["BT"] @ r) * lev["inv_A_bar"])
            u_prev[own] = u[own]
            u[own] = unew
    return data, list(sync)


# ------------------------------------------------------------- oracle


def test_global_loops_match_two_operator_formula(problem):
    _, solver, _, forces, rec, t_end = problem
    solo = solver.run(forces[0], t_end, receivers=rec, record="displacement")
    batch = solver.run_batch(
        forces, t_end, receivers=rec, record="displacement"
    )
    for got, fc in zip([solo, *batch], [forces[0], *forces]):
        want = oracle_global(solver, fc, NSTEPS, rec.nodes)
        assert np.abs(want).max() > 0
        assert rel_l2(got.data, want) <= 1e-12
    assert np.array_equal(batch[0].data, solo.data)


def test_lts_loops_match_two_operator_formula(problem):
    _, solver, plan, forces, rec, t_end = problem
    solo = solver.run(
        forces[0], t_end, receivers=rec, record="displacement", lts=plan
    )
    batch = solver.run_batch(
        forces, t_end, receivers=rec, record="displacement", lts=plan
    )
    for got, fc in zip([solo, *batch], [forces[0], *forces]):
        want, cols = oracle_lts(solver, plan, fc, NSTEPS, rec.nodes)
        assert np.abs(want).max() > 0
        assert rel_l2(got.data[:, :, cols], want) <= 1e-12
    assert np.array_equal(batch[0].data, solo.data)


# --------------------------------------------------------- call count


class CountingKernel:
    """Delegating wrapper that counts kernel applications."""

    def __init__(self, kernel):
        self._kernel = kernel
        self.calls = 0

    def matvec(self, *a, **kw):
        self.calls += 1
        return self._kernel.matvec(*a, **kw)

    def matmat(self, *a, **kw):
        self.calls += 1
        return self._kernel.matmat(*a, **kw)

    def __getattr__(self, name):
        return getattr(self._kernel, name)


def count_updates(monkeypatch) -> list:
    """Wrap the one update; its calls land in the returned list (every
    loop must go through it, solo and batched)."""
    calls, update = [], wave_solver.elastic_update

    def counted(*args):
        calls.append(1)
        return update(*args)

    monkeypatch.setattr(wave_solver, "elastic_update", counted)
    return calls


def test_damped_global_step_applies_the_kernel_once(problem, monkeypatch):
    _, solver, _, forces, _, t_end = problem
    counter = CountingKernel(solver.K._kernel)
    monkeypatch.setattr(solver.K, "_kernel", counter)
    updates = count_updates(monkeypatch)
    solver.run(forces[0], t_end)
    assert counter.calls == len(updates) == NSTEPS
    counter.calls = 0
    solver.run_batch(forces, t_end)
    assert counter.calls == NSTEPS and len(updates) == 2 * NSTEPS


def test_damped_lts_firing_applies_the_kernel_once(problem, monkeypatch):
    _, solver, plan, forces, _, t_end = problem
    counters = []
    for lev in solver._lts_exec(plan):
        counters.append(CountingKernel(lev["K"]._kernel))
        monkeypatch.setattr(lev["K"], "_kernel", counters[-1])
    updates = count_updates(monkeypatch)
    fired = [NSTEPS // lv.rate for lv in plan.levels]
    solver.run(forces[0], t_end, lts=plan)
    assert [c.calls for c in counters] == fired
    assert len(updates) == sum(fired)
    for c in counters:
        c.calls = 0
    solver.run_batch(forces, t_end, lts=plan)
    assert [c.calls for c in counters] == fired
    assert len(updates) == 2 * sum(fired)


def test_flop_counter_reports_one_matvec_per_damped_step(problem):
    mesh, solver, _, forces, _, t_end = problem
    before = dict(solver.flops.counts)
    solver.run(forces[0], t_end)
    added = {
        k: v - before.get(k, 0) for k, v in solver.flops.counts.items()
    }
    assert added["stiffness"] == NSTEPS * solver.K.flops_per_matvec
    # 12 per node for the update plus the 2 * 3 of the cached term
    assert added["update"] == NSTEPS * 18 * mesh.nnode


# --------------------------------------------------------- checkpoint


class Interrupt(Exception):
    pass


@pytest.mark.parametrize("lts", [False, True])
def test_damped_resume_is_bitwise(problem, tmp_path, lts):
    _, solver, plan, forces, rec, t_end = problem
    kw = {"receivers": rec, "lts": plan if lts else 0}
    ref = solver.run(forces[0], t_end, **kw)
    mgr = CheckpointManager(str(tmp_path), interval=10)
    if lts:
        # no callback under LTS: the full run leaves every snapshot,
        # resume restarts from the last one
        full = solver.run(forces[0], t_end, checkpoint=mgr, **kw)
        assert np.array_equal(full.data, ref.data)
        keys = {f"ku_prev_{i}" for i in range(len(plan.levels))}
    else:
        def crash(k, t, u):
            if k == 13:
                raise Interrupt

        with pytest.raises(Interrupt):
            solver.run(
                forces[0], t_end, checkpoint=mgr, callback=crash, **kw
            )
        keys = {"ku_prev"}
    ck = mgr.latest()
    assert ck.step < NSTEPS - 1
    assert keys <= set(ck.arrays)
    assert any(np.any(ck.arrays[k]) for k in keys)
    out = solver.run(forces[0], t_end, checkpoint=mgr, resume=True, **kw)
    assert np.array_equal(out.data, ref.data)


@pytest.mark.parametrize("lts", [False, True])
def test_old_format_snapshot_is_refused(problem, tmp_path, lts):
    mesh, solver, plan, forces, _, t_end = problem
    z = np.zeros((mesh.nnode, 3))
    arrays = {"u_prev": z, "u": z, "kb_u_prev": z}
    for i, lv in enumerate(plan.levels):
        arrays[f"kb_prev_{i}"] = np.zeros((len(lv.own_nodes), 3))
    mgr = CheckpointManager(str(tmp_path), interval=8)
    mgr.save(7, arrays, {"next_k": 8})
    with pytest.raises(ValueError, match="ku_prev"):
        solver.run(
            forces[0], t_end, checkpoint=mgr, resume=True,
            lts=plan if lts else 0,
        )
