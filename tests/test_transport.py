"""Process transport == simulated transport, message for message.

The tentpole guarantee of the shared-memory transport: running the
distributed solver over real worker processes produces the *same bits*
as the in-process simulation — trajectories compare with
``np.array_equal`` and the per-rank traffic statistics are identical —
so every correctness test of the simulated path covers the process
path, and every measured byte/message count means the same thing on
both.
"""

import time

import numpy as np
import pytest

from repro import telemetry
from repro.materials import HomogeneousMaterial, LayeredMaterial
from repro.mesh import rcb_partition, uniform_hex_mesh
from repro.parallel import (
    DistributedWaveSolver,
    ProcWorld,
    SimWorld,
    dist_solver,
    machine_from_measurements,
    measure_transport,
    predict_scalability,
)
from repro.parallel.transport import (
    WorkerFailure,
    attach_shared_array,
    create_shared_array,
    fit_alpha_beta,
)
from repro.resilience import FaultPlan, NumericalHealthError

MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
#: soft layer over stiff bedrock on a 1000 m box: a non-trivial LTS plan
LAYERED = LayeredMaterial(
    [875.0], vs=[200.0, 1600.0], vp=[400.0, 3200.0], rho=[2000.0, 2000.0]
)


class PointForce:
    """Picklable point force (worker processes unpickle it by value)."""

    def __init__(self, node: int, nnode: int):
        self.node = node
        self.nnode = nnode

    def __call__(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        # (t) for the distributed solver, (t, out) for the serial one
        b = np.zeros((self.nnode, 3)) if out is None else out
        b.fill(0.0)
        b[self.node, 2] = 1e9 * np.exp(-(((t - 0.02) / 0.008) ** 2))
        return b


def _run_on(world, mesh, parts, force, nsteps):
    solver = DistributedWaveSolver(mesh, MAT, parts, world)
    # the half-step offset keeps ceil(t_end / dt) at exactly nsteps
    # under float roundoff
    u = solver.run(force, (nsteps - 0.5) * solver.dt)
    return u, [s.as_tuple() for s in world.stats]


@pytest.mark.parametrize("nranks", [2, 4])
def test_transports_bit_identical(nranks):
    mesh = uniform_hex_mesh(4)
    parts = rcb_partition(mesh.elem_centers, nranks)
    force = PointForce(mesh.nnode // 2, mesh.nnode)
    sim = SimWorld(nranks)
    u_sim, stats_sim = _run_on(sim, mesh, parts, force, 25)
    with ProcWorld(nranks) as proc:
        u_proc, stats_proc = _run_on(proc, mesh, parts, force, 25)
    assert np.abs(u_sim).max() > 0  # the wave actually propagated
    assert np.array_equal(u_sim, u_proc)
    assert stats_sim == stats_proc


def test_proc_solver_matches_serial():
    from repro.octree import build_adaptive_octree
    from repro.mesh import extract_mesh
    from repro.solver import ElasticWaveSolver

    n = 8
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=4
    )
    mesh = extract_mesh(tree, L=1000.0)
    force = PointForce(mesh.nnode // 2, mesh.nnode)
    serial = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)
    nsteps = 20
    out = {}

    def cb(k, t, u):
        if k == nsteps:
            out["u"] = u.copy()

    # half-step offsets keep ceil(t_end / dt) unambiguous under float
    # roundoff: exactly nsteps + 1 serial steps, nsteps distributed
    serial.run(force, (nsteps + 0.5) * serial.dt, callback=cb)

    parts = rcb_partition(mesh.elem_centers, 4)
    with ProcWorld(4) as proc:
        solver = DistributedWaveSolver(mesh, MAT, parts, proc, dt=serial.dt)
        u_proc = solver.run(force, (nsteps - 0.5) * serial.dt)
    ref = np.abs(out["u"]).max()
    assert ref > 0
    np.testing.assert_allclose(u_proc, out["u"], rtol=1e-9, atol=1e-12 * ref)


def _boom_program(comm, payload):
    # module-level: rank programs cross the worker pipe by pickle
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    return comm.rank


def test_worker_error_propagates():
    with ProcWorld(2) as world:
        with pytest.raises(RuntimeError, match="rank 1 exploded"):
            world.run_spmd(_boom_program, [None, None])
        # the world survives a failed program
        assert world.run_spmd(_rank_id, ["a", "b"]) == [(0, "a"), (1, "b")]


def _boom_while_peer_waits(comm, payload):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    comm.Recv(1, tag=0)  # a message the failed rank never sends


def test_worker_error_with_a_blocked_peer_tears_the_pool_down_at_once():
    with ProcWorld(2, timeout=5.0) as world:
        t0 = time.perf_counter()
        with pytest.raises(WorkerFailure, match="rank 1 exploded") as ei:
            world.run_spmd(_boom_while_peer_waits, [None, None])
        # 5 s at the parent commit: the gather waited out rank 0's recv
        # timeout before it reported rank 1's error
        assert time.perf_counter() - t0 < 1.0
        assert ei.value.fatal and ei.value.ranks == [1]
        assert "still running: torn down" in str(ei.value)
        assert world._closed
        world.respawn()
        assert world.run_spmd(_rank_id, ["a", "b"]) == [(0, "a"), (1, "b")]


def test_shared_array_roundtrip():
    shm, view = create_shared_array((7, 3))
    try:
        view[:] = np.arange(21.0).reshape(7, 3)
        shm2, view2 = attach_shared_array(shm.name, (7, 3))
        assert np.array_equal(view2, view)
        del view2
        shm2.close()
    finally:
        del view
        shm.close()
        shm.unlink()


def test_measure_transport_sane():
    with ProcWorld(2) as world:
        meas = measure_transport(world, sizes=(64, 1024), repeats=5)
    assert meas["alpha"] > 0
    assert meas["beta"] > 0
    assert set(meas) == {"alpha", "beta", "samples"}
    # one (median round trip) sample per size
    assert [nbytes for nbytes, _ in meas["samples"]] == [64, 1024]
    assert all(round_s > 0 for _, round_s in meas["samples"])


def test_fit_alpha_beta_recovers_synthetic_constants():
    alpha, beta = 20e-6, 1e9
    exact = [
        (n, 2.0 * (alpha + n / beta)) for n in (64, 1024, 8192, 65536)
    ]
    a, b = fit_alpha_beta(exact)
    assert a == pytest.approx(alpha, rel=1e-9)
    assert b == pytest.approx(beta, rel=1e-9)
    # small messages timed flat (a noisy, cache-fast channel): the
    # fitted intercept is negative and comes back as the positive clamp
    flat = [(64, 2e-6), (1024, 2e-6), (8192, 2e-6), (65536, 100e-6)]
    a, b = fit_alpha_beta(flat)
    assert a == 1e-9
    assert b > 0


def test_measured_machine_plugs_into_the_scalability_model():
    mesh = uniform_hex_mesh(4, L=1000.0)
    with ProcWorld(2) as world:
        meas = measure_transport(world, sizes=(64, 1024), repeats=5)
    machine = machine_from_measurements(meas, flop_rate=1e9)
    assert machine.latency == meas["alpha"]
    assert machine.bandwidth == meas["beta"]
    row = predict_scalability(mesh, 2, machine=machine)
    assert 0 < row.efficiency <= 1


# ------------------------------------- one program, two transports


def _rank_id(comm, payload):
    return (comm.rank, payload)


def _rank_id_suspending(comm, payload):
    yield
    yield
    return (comm.rank, payload)


def _ring_program(comm, payload):
    dest = (comm.rank + 1) % comm.size
    comm.Send(np.full(3, float(payload)), dest, tag=comm.rank)
    yield  # every send is posted before any rank receives
    src = (comm.rank - 1) % comm.size
    return float(comm.Recv(src, tag=src)[0])


def _recv_unsent(comm, payload):
    yield
    comm.Recv((comm.rank + 1) % comm.size, tag=7)


def _send_unreceived(comm, payload):
    if comm.rank == 0:
        comm.Send(np.zeros(2), 1, tag=0)
    yield


def test_simworld_run_spmd_contract():
    world = SimWorld(3)
    for program in (_rank_id, _rank_id_suspending):
        assert world.run_spmd(program, ["a", "b", "c"]) == [
            (0, "a"), (1, "b"), (2, "c"),
        ]
    assert world.run_spmd(_ring_program, [10, 11, 12]) == [12.0, 10.0, 11.0]
    with pytest.raises(ValueError, match="one payload per rank"):
        world.run_spmd(_rank_id, [None])
    # a schedule bug is an error, never a hang — and never state that
    # outlives the run
    with pytest.raises(RuntimeError, match="no message from"):
        world.run_spmd(_recv_unsent, [None] * 3)
    with pytest.raises(RuntimeError, match="undelivered"):
        world.run_spmd(_send_unreceived, [None] * 3)
    assert world.run_spmd(_ring_program, [1, 2, 3]) == [3.0, 1.0, 2.0]


def test_ring_program_runs_on_the_process_transport_too():
    with ProcWorld(3) as world:
        with pytest.raises(ValueError, match="one payload per rank"):
            world.run_spmd(_rank_id, [None])
        assert world.run_spmd(_ring_program, [10, 11, 12]) == [
            12.0, 10.0, 11.0,
        ]


def test_both_worlds_are_handed_the_same_programs(monkeypatch):
    handed = {SimWorld: [], ProcWorld: []}
    for cls, log in handed.items():

        def spy(self, program, payloads, _real=cls.run_spmd, _log=log):
            _log.append(program)
            return _real(self, program, payloads)

        monkeypatch.setattr(cls, "run_spmd", spy)
    mesh = uniform_hex_mesh(4, L=1000.0)
    force = PointForce(mesh.nnode // 2, mesh.nnode)
    parts = rcb_partition(mesh.elem_centers, 2)

    def drive(world):
        solver = DistributedWaveSolver(mesh, MAT, parts, world)
        t_end = 3.5 * solver.dt
        solver.run(force, t_end)
        solver = DistributedWaveSolver(mesh, LAYERED, parts, world)
        solver.run(force, 7.5 * solver.dt, lts=8)
        assert sum(solver.last_timings[0]["lts_fired"].values()) > 0

    drive(SimWorld(2))
    with ProcWorld(2) as proc:
        drive(proc)
    # one rank program serves both schedules
    assert handed[SimWorld] == handed[ProcWorld] == [
        dist_solver._rank_program,
        dist_solver._rank_program,
    ]


def test_in_process_suspension_is_charged_to_no_phase():
    # one thread runs every rank, so the phases of all ranks together
    # cannot exceed the wall time — unless the time a rank spends
    # suspended (its peers' whole step) leaks into one of its phases
    mesh = uniform_hex_mesh(4, L=1000.0)
    parts = rcb_partition(mesh.elem_centers, 4)
    force = PointForce(mesh.nnode // 2, mesh.nnode)
    telemetry.enable()
    try:
        for mat, kw in ((MAT, {}), (LAYERED, {"lts": 8})):
            solver = DistributedWaveSolver(mesh, mat, parts, SimWorld(4))
            t0 = time.perf_counter()
            solver.run(force, 39.5 * solver.dt, **kw)
            wall = time.perf_counter() - t0
            busy = sum(r.durations.sum() for r in solver.last_timeline.ranks)
            assert 0 < busy <= wall
            assert sum(
                t["t_compute"] + t["t_wait"] for t in solver.last_timings
            ) <= wall
    finally:
        telemetry.disable()
        telemetry.reset()


def _flight_dump_program(comm, payload):
    return telemetry.flight_dump(f"rank {comm.rank}")


def test_worker_flight_dumps_hold_none_of_the_masters_telemetry(tmp_path):
    import json

    tr = telemetry.enable()
    try:
        with telemetry.span("master.only"):
            pass
        telemetry.count("master.only")
        telemetry.arm_flight_recorder(str(tmp_path))
        master = {
            (r["path"], r["t_start"], r["duration"])
            for r in tr._event_records()
        }
        assert master
        with ProcWorld(2) as world:
            paths = world.run_spmd(_flight_dump_program, [None, None])
        assert len(set(paths)) == 2
        for path in paths:
            recs = [json.loads(line) for line in open(path)]
            events = {
                (r["path"], r["t_start"], r["duration"])
                for r in recs if r["type"] == "event"
            }
            assert not events & master, path
            assert "master.only" not in {
                r["name"] for r in recs if r["type"] == "metric"
            }
    finally:
        telemetry.arm_flight_recorder(None)
        telemetry.disable()
        telemetry.reset()


class _RaisingForce:
    def __init__(self, force, t_fail):
        self.force, self.t_fail = force, t_fail

    def __call__(self, t):
        if t > self.t_fail:
            raise ArithmeticError("source blew up")
        return self.force(t)


def test_failed_in_process_run_leaves_the_world_reusable():
    # under cooperative scheduling rank 0 fails while rank 1's message
    # for the same step is already queued; a stale partial sum left in
    # the mailbox would make the next run finite and wrong
    mesh = uniform_hex_mesh(4)
    parts = rcb_partition(mesh.elem_centers, 2)
    force = PointForce(mesh.nnode // 2, mesh.nnode)
    u_ref, _ = _run_on(SimWorld(2), mesh, parts, force, 25)

    world = SimWorld(2)
    solver = DistributedWaveSolver(mesh, MAT, parts, world)
    t_end = 24.5 * solver.dt
    with pytest.raises(NumericalHealthError) as err:
        solver.run(
            force, t_end, health_interval=1,
            faults=FaultPlan.parse("nan:rank=0,step=7"),
        )
    assert (err.value.rank, err.value.step) == (0, 7)
    assert np.array_equal(solver.run(force, t_end), u_ref)
    with pytest.raises(ArithmeticError):
        solver.run(_RaisingForce(force, 9.5 * solver.dt), t_end)
    assert np.array_equal(solver.run(force, t_end), u_ref)
    # kill and send-path faults exercise the worker-process machinery:
    # in-process they stay unarmed (a kill would exit this process)
    plan = FaultPlan.parse(
        "kill:rank=1,step=3;drop:rank=0,step=4;corrupt:rank=0,step=5"
    )
    assert np.array_equal(solver.run(force, t_end, faults=plan), u_ref)
    assert plan.fired == []
