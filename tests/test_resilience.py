"""Fault tolerance: crash-safe checkpoint/restart, worker failure
recovery, and the deterministic fault-injection harness.

The guarantees under test:

* durable checkpoints survive corruption (CRC-validated, atomic
  write-rename, fall back to the previous valid file);
* every resumable loop (serial elastic, scalar march, distributed
  solver on both transports, Gauss-Newton outer iterations) continues
  **bit-identically** from its latest checkpoint;
* the process transport detects dead / hung / erroring ranks, tears the
  pool down without leaking ``/dev/shm`` segments, and the distributed
  solver recovers by respawning and rewinding to the last collective
  checkpoint;
* injected faults (kill, corrupt, NaN) are deterministic, keyed on the
  recovery attempt, and surface as structured errors naming where the
  run went bad.
"""

import os
import time

import numpy as np
import pytest

from repro.materials import HomogeneousMaterial
from repro.mesh import extract_mesh, rcb_partition, uniform_hex_mesh
from repro.octree import build_adaptive_octree
from repro.parallel import (
    DistributedWaveSolver,
    ProcWorld,
    SimWorld,
    TransportCorruption,
    WorkerFailure,
)
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    NumericalHealthError,
    RetryPolicy,
    check_finite,
    validate_cfl,
)
from repro.solver import ElasticWaveSolver, RegularGridScalarWave
from repro.solver.checkpoint import (
    CheckpointCorruptError,
    CheckpointManager,
    collective_latest_step,
    load_checkpoint,
    save_checkpoint,
)
from repro.solver.frame import MarchFrame

MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)


class PointForce:
    """Picklable point force (worker processes unpickle it by value)."""

    def __init__(self, node: int, nnode: int):
        self.node = node
        self.nnode = nnode

    def __call__(self, t, out=None):
        b = np.zeros((self.nnode, 3)) if out is None else out
        b.fill(0.0)
        b[self.node, 2] = 1e9 * np.exp(-(((t - 0.02) / 0.008) ** 2))
        return b


class Interrupt(Exception):
    """Simulated crash raised from inside a run's callback."""


# ------------------------------------------------ checkpoint format


def test_run_checkpoint_roundtrip(tmp_path):
    path = str(tmp_path / "a.ckpt")
    arrays = {
        "u": np.arange(12, dtype=float).reshape(4, 3),
        "mask": np.array([1, 0, 1], dtype=np.int64),
    }
    meta = {"next_k": 7, "note": "hello"}
    nbytes = save_checkpoint(path, 6, arrays, meta)
    assert nbytes == os.path.getsize(path)
    ck = load_checkpoint(path)
    assert ck.step == 6
    assert ck.meta == meta
    assert ck.arrays["u"].dtype == np.float64
    np.testing.assert_array_equal(ck.arrays["u"], arrays["u"])
    np.testing.assert_array_equal(ck.arrays["mask"], arrays["mask"])
    # no stray temp file from the atomic write-rename
    assert not list(tmp_path.glob("*.tmp"))


def test_checkpoint_rejects_corruption(tmp_path):
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, 3, {"u": np.ones(8)})
    blob = bytearray(open(path, "rb").read())
    # flip a payload byte -> CRC mismatch
    flipped = bytearray(blob)
    flipped[-5] ^= 0xFF
    open(path, "wb").write(bytes(flipped))
    with pytest.raises(CheckpointCorruptError, match="CRC32"):
        load_checkpoint(path)
    # truncate mid-payload
    open(path, "wb").write(bytes(blob[:-16]))
    with pytest.raises(CheckpointCorruptError, match="truncated"):
        load_checkpoint(path)
    # wrong magic
    open(path, "wb").write(b"NOTACKPT" + bytes(blob[8:]))
    with pytest.raises(CheckpointCorruptError, match="magic"):
        load_checkpoint(path)
    # missing file
    with pytest.raises(CheckpointCorruptError, match="unreadable"):
        load_checkpoint(str(tmp_path / "missing.ckpt"))


def _frame_cadence(frame, s_end):
    """Drive ``frame`` through boundaries ``1 .. s_end`` of a finite
    state whose leading entry is the step; return the 0-based steps at
    which it checked or saved."""
    acted = []

    def snapshot(s):
        acted.append(s - 1)
        return {"u": np.full(4, float(s - 1))}

    for s in range(1, s_end + 1):
        frame.boundary(s, np.zeros(4), snapshot)
    return acted


def test_manager_prunes_and_skips_corrupt_latest(tmp_path):
    mgr = CheckpointManager(str(tmp_path), interval=5, keep=3)
    # the frame saves once every `interval` completed steps
    frame = MarchFrame(20, checkpoint=mgr)
    assert _frame_cadence(frame, 20) == [4, 9, 14, 19]
    # keep=3: the oldest file is pruned
    assert mgr.steps() == [9, 14, 19]
    # corrupt the newest -> latest() falls back to the previous one
    blob = bytearray(open(mgr.path_for(19), "rb").read())
    blob[-1] ^= 0xFF
    open(mgr.path_for(19), "wb").write(bytes(blob))
    ck = mgr.latest()
    assert ck.step == 14
    assert ck.arrays["u"][0] == 14.0
    assert mgr.valid_steps() == [9, 14]


def test_collective_latest_step_intersects_ranks(tmp_path):
    d = str(tmp_path)
    for r, steps in [(0, (4, 9, 14)), (1, (4, 9))]:
        mgr = CheckpointManager(d, prefix=f"rank{r}")
        for s in steps:
            mgr.save(s, {"u": np.zeros(2)}, {"next_k": s + 1})
    # rank 1 never reached 14 -> the collective restart point is 9
    assert collective_latest_step(d, 2) == 9
    # a corrupt rank-1 file drops that step from the intersection
    blob = bytearray(open(os.path.join(d, "rank1_0000000009.ckpt"), "rb").read())
    blob[-1] ^= 0xFF
    open(os.path.join(d, "rank1_0000000009.ckpt"), "wb").write(bytes(blob))
    assert collective_latest_step(d, 2) == 4
    # a rank with no checkpoints at all -> no collective restart point
    assert collective_latest_step(d, 3) is None


# ------------------------------------------------ fault-plan grammar


def test_fault_plan_parse_grammar():
    plan = FaultPlan.parse("kill:rank=1,step=40;corrupt:rank=0,step=3,attempt=1")
    assert [s.kind for s in plan.specs] == ["kill", "corrupt"]
    assert plan.specs[0].rank == 1 and plan.specs[0].step == 40
    assert plan.specs[1].attempt == 1
    # defaults: rank 0, attempt 0, any dest
    one = FaultPlan.parse("nan:step=5").specs[0]
    assert one.rank == 0 and one.attempt == 0 and one.dest is None
    assert FaultPlan.parse("delay:step=2,seconds=0.25").specs[0].seconds == 0.25
    assert not FaultPlan.parse("")
    with pytest.raises(ValueError):
        FaultPlan.parse("explode:step=1")
    with pytest.raises(ValueError):
        FaultPlan.parse("kill:rank")
    with pytest.raises(ValueError):
        FaultPlan.parse("kill:when=3")


def test_fault_plan_env_and_attempt_keying(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert FaultPlan.from_env() is None
    monkeypatch.setenv("REPRO_FAULTS", "nan:rank=2,step=7")
    plan = FaultPlan.from_env()
    assert plan.specs[0].rank == 2
    # attempt keying: the fault fires on attempt 0 only; the retried
    # plan (attempt 1) leaves the state alone
    state = np.zeros(4)
    plan.poison_state(2, 7, state)
    assert np.isnan(state[0])
    state = np.zeros(4)
    plan.retried().poison_state(2, 7, state)
    assert not np.isnan(state).any()


# ------------------------------------------------ health guards


def test_check_finite_structured_error():
    check_finite(np.ones(5))  # finite: no raise
    bad = np.ones((3, 2))
    bad[1, 0] = np.inf
    with pytest.raises(NumericalHealthError) as ei:
        check_finite(bad, step=12, rank=3, field="u")
    assert ei.value.step == 12 and ei.value.rank == 3
    assert "step 12" in str(ei.value) and "rank 3" in str(ei.value)


def test_should_check_cadence():
    # the frame's sentinel: every `interval` steps plus always the
    # final step; off at interval 0
    assert _frame_cadence(MarchFrame(10, health_interval=4), 10) == [3, 7, 9]
    assert _frame_cadence(MarchFrame(10, health_interval=0), 10) == []
    # final step even with huge interval
    assert _frame_cadence(MarchFrame(10, health_interval=100), 10) == [9]


def test_validate_cfl_rejects_unstable_dt():
    h = np.full(4, 100.0)
    vp = np.full(4, 1800.0)
    validate_cfl(0.01, h, vp)  # comfortably stable
    with pytest.raises(NumericalHealthError, match="CFL"):
        validate_cfl(1.0, h, vp)


def test_pcg_divergence_safeguard_returns_finite_direction():
    from repro.inverse.gauss_newton import _pcg

    g = np.array([1.0, -2.0, 0.5])
    d, iters = _pcg(
        lambda p: np.full_like(p, np.nan), g, tol=0.1, maxiter=10,
        precond=None,
    )
    assert np.all(np.isfinite(d))
    assert d @ g < 0  # still a descent direction
    assert iters == 1  # bailed out on the first poisoned product


# ------------------------------------------------ serial resume


def _small_elastic():
    n = 4
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=2
    )
    mesh = extract_mesh(tree, L=1000.0)
    solver = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)
    return mesh, solver


def test_serial_elastic_resume_bit_identical(tmp_path):
    from repro.io.seismogram import ReceiverArray

    mesh, solver = _small_elastic()
    force = PointForce(mesh.nnode // 2, mesh.nnode)
    rec = ReceiverArray(
        mesh, np.array([[250.0, 250.0, 0.0], [750.0, 500.0, 0.0]])
    )
    nsteps = 20
    t_end = (nsteps - 0.5) * solver.dt
    ref = solver.run(force, t_end, receivers=rec)

    mgr = CheckpointManager(str(tmp_path), interval=5)

    def crash(k, t, u):
        if k == 12:
            raise Interrupt

    with pytest.raises(Interrupt):
        solver.run(force, t_end, receivers=rec, checkpoint=mgr, callback=crash)
    # the crash at step 12 left checkpoints through step 9
    assert mgr.latest().step == 9
    seis = solver.run(force, t_end, receivers=rec, checkpoint=mgr, resume=True)
    assert np.array_equal(seis.data, ref.data)


def test_serial_nan_injection_names_step(tmp_path):
    _, solver = _small_elastic()
    force = PointForce(0, solver.nnode)
    plan = FaultPlan([FaultSpec("nan", rank=0, step=7)])
    with pytest.raises(NumericalHealthError) as ei:
        solver.run(
            force, 14.5 * solver.dt, faults=plan, health_interval=1
        )
    assert ei.value.step == 7


def test_scalar_march_resume_bit_identical(tmp_path):
    solver = RegularGridScalarWave((8, 4), 100.0, rho=1000.0)
    mu = np.full(solver.nelem, 2.0e9)
    dt = solver.stable_dt(mu)
    nsteps = 12
    f0 = np.zeros(solver.nnode)
    f0[solver.nnode // 2] = 1e6

    def forcing(k):
        return f0 if k < 3 else None

    ref = solver.march(mu, forcing, nsteps, dt, store=True)
    mgr = CheckpointManager(str(tmp_path), interval=4)

    def crash(k):
        if k == 10:
            raise Interrupt
        return forcing(k)

    with pytest.raises(Interrupt):
        solver.march(mu, crash, nsteps, dt, store=True, checkpoint=mgr)
    hist = solver.march(
        mu, forcing, nsteps, dt, store=True, checkpoint=mgr, resume=True
    )
    assert np.array_equal(hist, ref)


def test_scalar_march_nan_injection():
    solver = RegularGridScalarWave((8, 4), 100.0, rho=1000.0)
    mu = np.full(solver.nelem, 2.0e9)
    dt = solver.stable_dt(mu)
    plan = FaultPlan.parse("nan:step=5")
    with pytest.raises(NumericalHealthError) as ei:
        solver.march(
            mu, lambda k: None, 10, dt, faults=plan, health_interval=1
        )
    assert ei.value.step == 5 and ei.value.field == "x"


@pytest.mark.parametrize("kind", ["scalar", "elastic", "simworld"])
def test_resume_past_nsteps_is_refused(tmp_path, kind):
    # a 20-step run's last snapshot cannot finish a 10-step march: it
    # used to come back as the 20-step state, without an error
    d = str(tmp_path)
    mgr = CheckpointManager(d, interval=5)
    if kind == "scalar":
        solver = RegularGridScalarWave((8, 4), 100.0, rho=1000.0)
        mu = np.full(solver.nelem, 2.0e9)
        dt = solver.stable_dt(mu)
        f0 = np.zeros(solver.nnode)
        f0[solver.nnode // 2] = 1e6

        def march(nsteps, **kw):
            return solver.march(
                mu, lambda k: f0 if k < 3 else None, nsteps, dt,
                store=False, checkpoint=mgr, **kw,
            )
    elif kind == "elastic":
        _, solver = _small_elastic()
        force = PointForce(solver.nnode // 2, solver.nnode)

        def march(nsteps, **kw):
            return solver.run(
                force, (nsteps - 0.5) * solver.dt, checkpoint=mgr, **kw
            )
    else:
        mesh, parts, force = _dist_problem()
        solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))

        def march(nsteps, **kw):
            return solver.run(
                force, (nsteps - 0.5) * solver.dt, checkpoint_dir=d,
                checkpoint_every=5, **kw,
            )
    march(20)
    with pytest.raises(ValueError, match="next_k = 20.*nsteps = 10"):
        march(10, resume=True)


# ------------------------------------------------ Gauss-Newton resume


def _tiny_inverse_problem():
    from repro.inverse import (
        FaultLineSource2D,
        MaterialGrid,
        ScalarWaveInverseProblem,
        Shot,
    )

    nx, nz = 16, 8
    h = 100.0
    solver = RegularGridScalarWave((nx, nz), h, rho=1000.0)
    grid = MaterialGrid((4, 2), (nx * h, nz * h))
    m_true = grid.sample(lambda p: 2.0e9 + 1.5e9 * (p[:, 1] > 400.0))
    mu_e = grid.to_elements(solver) @ m_true
    dt = solver.stable_dt(np.full(solver.nelem, m_true.max()))
    nsteps = 40
    shots = []
    for ix, hj in [(nx // 2, 4), (nx // 4, 3)]:
        fault = FaultLineSource2D(solver, ix=ix, jz=range(2, 6))
        params = fault.hypocentral_params(
            hypo_j=hj, rupture_velocity=2000.0, u0=1.0, t0=0.3
        )
        u = solver.march(
            mu_e, fault.forcing(mu_e, params, dt), nsteps, dt, store=True
        )
        recn = solver.surface_nodes()[::2]
        shots.append(
            Shot(receivers=recn, data=u[:, recn], fault=fault,
                 source_params=params)
        )
    prob = ScalarWaveInverseProblem.multi_shot(solver, grid, shots, dt, nsteps)
    return prob, grid


@pytest.mark.parametrize("with_precond", [False, True])
def test_gauss_newton_resume_bit_identical(tmp_path, with_precond):
    from repro.inverse.gauss_newton import gauss_newton_cg
    from repro.inverse.precond import LBFGSPreconditioner

    prob, grid = _tiny_inverse_problem()
    m0 = np.full(grid.n, 2.5e9)

    def precond():
        return LBFGSPreconditioner(grid.n, memory=5) if with_precond else None

    ref = gauss_newton_cg(
        prob, m0, max_newton=3, cg_maxiter=6, precond=precond()
    )

    # interrupted run: stop after one outer iteration, checkpointing
    # every accepted iterate (including the L-BFGS curvature pairs)
    mgr = CheckpointManager(str(tmp_path), interval=1, prefix="gn")
    gauss_newton_cg(
        prob, m0, max_newton=1, cg_maxiter=6, precond=precond(),
        checkpoint=mgr,
    )
    res = gauss_newton_cg(
        prob, m0, max_newton=3, cg_maxiter=6, precond=precond(),
        checkpoint=mgr, resume=True,
    )
    assert np.array_equal(res.m, ref.m)
    assert res.objective == ref.objective
    # the resumed history continues the interrupted one
    assert [h["J"] for h in res.history] == [h["J"] for h in ref.history]


# ------------------------------------------------ distributed: SimWorld


def _dist_problem():
    mesh = uniform_hex_mesh(4)
    parts = rcb_partition(mesh.elem_centers, 2)
    force = PointForce(mesh.nnode // 2, mesh.nnode)
    return mesh, parts, force


def test_simworld_resume_bit_identical(tmp_path):
    mesh, parts, force = _dist_problem()
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    t_end = 24.5 * solver.dt
    u_ref = solver.run(force, t_end)

    d = str(tmp_path)
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))

    def crashing_force(t):
        if t > 15.5 * solver.dt:
            raise Interrupt
        return force(t)

    with pytest.raises(Interrupt):
        solver.run(
            crashing_force, t_end, checkpoint_dir=d, checkpoint_every=6
        )
    assert collective_latest_step(d, 2) == 11
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    u = solver.run(force, t_end, checkpoint_dir=d, resume=True)
    assert np.array_equal(u, u_ref)


def test_simworld_nan_injection_names_rank():
    mesh, parts, force = _dist_problem()
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    plan = FaultPlan([FaultSpec("nan", rank=1, step=9)])
    with pytest.raises(NumericalHealthError) as ei:
        solver.run(force, 20.5 * solver.dt, faults=plan, health_interval=1)
    assert ei.value.rank == 1 and ei.value.step == 9


# ------------------------------------------------ distributed: ProcWorld


def test_proc_kill_detected_and_pool_torn_down():
    mesh, parts, force = _dist_problem()
    with ProcWorld(2) as world:
        solver = DistributedWaveSolver(mesh, MAT, parts, world)
        plan = FaultPlan([FaultSpec("kill", rank=1, step=6)])
        # no checkpointing -> not recoverable: the failure surfaces
        with pytest.raises(WorkerFailure) as ei:
            solver.run(force, 20.5 * solver.dt, faults=plan)
        assert ei.value.fatal
        assert 1 in ei.value.ranks
        assert "exit code 173" in str(ei.value)
        # the pool is torn down...
        assert world._closed
        assert not any(p.is_alive() for p in world._procs)
        # ...and respawn restores a working pool
        world.respawn()
        assert world.respawns == 1
        u = solver.run(force, 20.5 * solver.dt)
        assert np.all(np.isfinite(u))


def test_proc_kill_recovery_bit_identical(tmp_path):
    mesh, parts, force = _dist_problem()
    with ProcWorld(2) as clean:
        solver = DistributedWaveSolver(mesh, MAT, parts, clean)
        t_end = 24.5 * solver.dt
        u_ref = solver.run(force, t_end)

    d = str(tmp_path)
    with ProcWorld(2) as world:
        solver = DistributedWaveSolver(mesh, MAT, parts, world)
        plan = FaultPlan([FaultSpec("kill", rank=1, step=13)])
        u = solver.run(
            force, t_end, checkpoint_dir=d, checkpoint_every=5,
            faults=plan, retry=RetryPolicy(backoff=0.0),
        )
        # rank 1 was killed at step 13, the pool respawned, and the run
        # rewound to the collective checkpoint at step 9 — the recovered
        # trajectory is the uninterrupted one, bit for bit
        assert world.respawns == 1
        assert np.array_equal(u, u_ref)


def test_proc_nan_recovery_bit_identical(tmp_path):
    mesh, parts, force = _dist_problem()
    with ProcWorld(2) as clean:
        solver = DistributedWaveSolver(mesh, MAT, parts, clean)
        t_end = 24.5 * solver.dt
        u_ref = solver.run(force, t_end)

    d = str(tmp_path)
    # poison both ranks at the same step so neither blocks waiting on a
    # failed peer (program errors leave the pool up; the recovery loop
    # still respawns to flush channel residue)
    plan = FaultPlan(
        [FaultSpec("nan", rank=0, step=12), FaultSpec("nan", rank=1, step=12)]
    )
    with ProcWorld(2) as world:
        solver = DistributedWaveSolver(mesh, MAT, parts, world)
        u = solver.run(
            force, t_end, checkpoint_dir=d, checkpoint_every=5,
            faults=plan, health_interval=1, retry=RetryPolicy(backoff=0.0),
        )
        assert world.respawns == 1
        assert np.array_equal(u, u_ref)


def test_proc_corrupt_payload_recovery(tmp_path):
    mesh, parts, force = _dist_problem()
    with ProcWorld(2) as clean:
        solver = DistributedWaveSolver(mesh, MAT, parts, clean)
        t_end = 24.5 * solver.dt
        u_ref = solver.run(force, t_end)

    d = str(tmp_path)
    # rank 0's step-8 boundary send is corrupted after its CRC: rank 1's
    # receive raises TransportCorruption; rank 0, blocked on its own
    # receive, is torn down a poll tick later — one WorkerFailure, and
    # the run recovers from the step-4 checkpoint
    plan = FaultPlan([FaultSpec("corrupt", rank=0, step=8)])
    with ProcWorld(2, timeout=3.0) as world:
        solver = DistributedWaveSolver(mesh, MAT, parts, world)
        u = solver.run(
            force, t_end, checkpoint_dir=d, checkpoint_every=5,
            faults=plan, retry=RetryPolicy(backoff=0.0),
        )
        assert world.respawns >= 1
        assert np.array_equal(u, u_ref)


def test_proc_corrupt_recovery_does_not_wait_out_the_recv_timeout(tmp_path):
    # the CI matrix's corrupt cell: rank 0's CRC check fails on rank 1's
    # step-5 message while rank 1 blocks on its own receive.  5.8 s at
    # the parent commit, where the failure surfaced only when that
    # receive timed out; the kill cell recovers in 0.6 s
    mesh, parts, force = _dist_problem()
    with ProcWorld(2) as clean:
        solver = DistributedWaveSolver(mesh, MAT, parts, clean)
        t_end = 24.5 * solver.dt
        u_ref = solver.run(force, t_end)

    with ProcWorld(2, timeout=5.0) as world:
        solver = DistributedWaveSolver(mesh, MAT, parts, world)
        t0 = time.perf_counter()
        u = solver.run(
            force, t_end, checkpoint_dir=str(tmp_path), checkpoint_every=5,
            faults=FaultPlan.parse("corrupt:rank=1,step=5"),
            retry=RetryPolicy(backoff=0.0),
        )
        elapsed = time.perf_counter() - t0
        assert world.respawns == 1
        assert np.array_equal(u, u_ref)
    assert elapsed < 1.5


def test_channel_crc_catches_corruption_directly():
    # unit-level: a corrupted payload fails the receiver's CRC check
    import multiprocessing as mp

    ctx = mp.get_context()
    from repro.parallel.transport import _Channel

    ch = _Channel(ctx, 1024, timeout=1.0)
    ch.send(np.arange(8, dtype=float), tag=5)
    np.testing.assert_array_equal(ch.recv(5), np.arange(8, dtype=float))
    ch.send(np.arange(8, dtype=float), tag=5, corrupt=True)
    with pytest.raises(TransportCorruption):
        ch.recv(5)


def test_no_leaked_shm_segments_after_failure():
    def shm_names():
        try:
            return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
        except FileNotFoundError:  # non-Linux: nothing to check
            return set()

    before = shm_names()
    mesh, parts, force = _dist_problem()
    with ProcWorld(2) as world:
        solver = DistributedWaveSolver(mesh, MAT, parts, world)
        plan = FaultPlan([FaultSpec("kill", rank=0, step=4)])
        with pytest.raises(WorkerFailure):
            solver.run(force, 20.5 * solver.dt, faults=plan)
    time.sleep(0.1)  # let the resource tracker settle
    leaked = shm_names() - before
    assert not leaked, f"leaked /dev/shm segments: {leaked}"


def test_hang_detection_and_heartbeat():
    with ProcWorld(2, hang_timeout=1.0, heartbeat_interval=0.1) as world:
        # a rank that goes silent past hang_timeout is declared hung
        with pytest.raises(WorkerFailure) as ei:
            world.run_spmd(_sleepy_program, [None, 2.5])
        assert ei.value.fatal and "hung" in str(ei.value)
        # a rank that works just as long but heartbeats stays alive
        world.respawn()
        out = world.run_spmd(_heartbeat_program, [None, 1.5])
        assert out == [0, 1]


def _sleepy_program(comm, payload):
    if payload is not None:
        time.sleep(payload)  # silent: no sends, no heartbeats
    return comm.rank


def _heartbeat_program(comm, payload):
    if payload is not None:
        deadline = time.perf_counter() + payload
        k = 0
        while time.perf_counter() < deadline:
            time.sleep(0.05)
            comm.heartbeat(k)
            k += 1
    return comm.rank


# ------------------------------------------ CI fault-injection matrix


def test_env_fault_matrix(tmp_path):
    """Driven by the CI matrix: ``REPRO_FAULTS`` picks the fault,
    ``REPRO_FAULT_TRANSPORT`` the transport (``sim``, ``proc``, or
    ``serial`` for the serial solvers).  Defaults exercise a NaN fault
    on the in-process transport."""
    plan = FaultPlan.from_env() or FaultPlan.parse("nan:rank=0,step=7")
    transport = os.environ.get("REPRO_FAULT_TRANSPORT", "sim")
    kinds = {s.kind for s in plan.specs}
    mesh, parts, force = _dist_problem()

    if transport == "serial":
        if kinds - {"nan"}:
            pytest.skip("kill/channel faults need the process transport")
        _serial_nan_stops_with_a_flight_dump(plan, str(tmp_path / "flight"))
        return

    if transport == "sim":
        if kinds - {"nan"}:
            pytest.skip("kill/channel faults need the process transport")
        solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
        with pytest.raises(NumericalHealthError):
            solver.run(
                force, 20.5 * solver.dt, faults=plan, health_interval=1
            )
        return

    # process transport: every fault kind recovers to the unfaulted bits
    with ProcWorld(2) as clean:
        solver = DistributedWaveSolver(mesh, MAT, parts, clean)
        t_end = 24.5 * solver.dt
        u_ref = solver.run(force, t_end)
    if "nan" in kinds:
        # mirror single-rank NaN faults onto every rank so no peer is
        # left blocking on a failed one (see the recovery test above)
        plan = FaultPlan(
            [
                FaultSpec("nan", rank=r, step=s.step)
                for s in plan.specs
                for r in range(2)
            ]
        )
    with ProcWorld(2, timeout=5.0) as world:
        solver = DistributedWaveSolver(mesh, MAT, parts, world)
        u = solver.run(
            force, t_end, checkpoint_dir=str(tmp_path), checkpoint_every=5,
            faults=plan, health_interval=1, retry=RetryPolicy(backoff=0.0),
        )
        assert world.respawns >= 1
        assert np.array_equal(u, u_ref)


def _serial_nan_stops_with_a_flight_dump(plan, fallback_dir):
    """The serial cell of the fault matrix: elastic ``run`` and scalar
    ``march`` (both rank 0) stop at the NaN with a
    :class:`NumericalHealthError` and leave one flight dump each in
    ``$REPRO_FLIGHT_DIR`` — or ``fallback_dir``, armed here, when the
    variable is unset."""
    from repro import telemetry

    plan = FaultPlan(
        [FaultSpec("nan", rank=0, step=s.step) for s in plan.specs]
    )
    flight = os.environ.get("REPRO_FLIGHT_DIR")
    if not flight:
        flight = fallback_dir
        telemetry.arm_flight_recorder(flight)
    before = set(os.listdir(flight)) if os.path.isdir(flight) else set()
    _, elastic = _small_elastic()
    scalar = RegularGridScalarWave((8, 4), 100.0, rho=1000.0)
    mu = np.full(scalar.nelem, 2.0e9)
    try:
        with pytest.raises(NumericalHealthError) as ei:
            elastic.run(
                PointForce(0, elastic.nnode), 20.5 * elastic.dt,
                faults=plan, health_interval=1,
            )
        assert ei.value.field == "u" and ei.value.rank is None
        with pytest.raises(NumericalHealthError) as ei:
            scalar.march(
                mu, lambda k: None, 20, scalar.stable_dt(mu), faults=plan,
                health_interval=1,
            )
        assert ei.value.field == "x" and ei.value.rank is None
    finally:
        if flight == fallback_dir:
            telemetry.arm_flight_recorder(None)
    assert len(set(os.listdir(flight)) - before) == 2
