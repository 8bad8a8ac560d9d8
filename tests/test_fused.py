"""Communication-avoiding distributed stepping (k-deep ghost halos).

The contract under test:

* a fused rank marches ``k`` steps per aggregated halo exchange yet
  stays **bitwise identical on owned nodes** to ``k`` sequential
  1-deep exchanges — across 1/2/4 ranks, both transports, and partial
  trailing windows;
* ``steps_per_exchange=1`` is exactly the historical per-step loop;
* the per-step message count drops by a factor of ~``k``;
* checkpoints land only on exchange boundaries and resume
  bit-identically; resuming a misaligned (non-boundary) checkpoint is
  rejected; a worker killed mid-window recovers bit-identically;
* the alpha-beta-gamma machine model picks ``k`` sensibly, and the
  ``auto`` knob plumbs its choice through a real run.
"""

import os

import numpy as np
import pytest

from repro.materials import HomogeneousMaterial
from repro.mesh import rcb_partition, uniform_hex_mesh
from repro.parallel import (
    DistributedWaveSolver,
    MachineModel,
    ProcWorld,
    SimWorld,
    choose_steps_per_exchange,
)
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    NumericalHealthError,
    RetryPolicy,
)
from repro.solver.checkpoint import collective_latest_step

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


def _problem(nranks: int):
    mesh = uniform_hex_mesh(4)
    parts = (
        rcb_partition(mesh.elem_centers, nranks)
        if nranks > 1
        else np.zeros(mesh.nelem, dtype=np.int64)
    )
    force = PointForce(mesh.nnode // 2, mesh.nnode)
    return mesh, parts, force


# --------------------------------------------------- halo construction


def test_fused_halo_construction_invariants():
    mesh, parts, _ = _problem(4)
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(4))
    shallow = solver.dist.build_fused_halos(2)
    deep = solver.dist.build_fused_halos(4)
    assert shallow.depth == 2 and deep.depth == 4
    assert deep.max_message_bytes() >= shallow.max_message_bytes() > 0
    for h2, h4, rp in zip(shallow.halos, deep.halos, solver.dist.ranks):
        # the own perspective is the rank's full partition
        own2 = h2.perspectives[h2.rank]
        assert len(own2.nodes_global) == len(rp.nodes)
        # a deeper halo only grows each ghost perspective
        for owner, q in h2.perspectives.items():
            if owner == h2.rank:
                continue
            q4 = h4.perspectives[owner]
            assert set(q.elements_global) <= set(q4.elements_global)
        # every refresh send indexes the sender's own nodes
        for dest, idx in h2.sends.items():
            assert dest != h2.rank
            assert idx.max() < len(own2.nodes_global)
        # adds route partial sums into perspectives this rank holds
        for dst, src, di, si in h2.adds:
            assert dst in h2.perspectives and src in h2.perspectives
            assert len(di) == len(si) > 0


# ------------------------------------------------------ bitwise parity


@pytest.mark.parametrize("nranks", [1, 2, 4])
@pytest.mark.parametrize("k", [2, 3])
def test_fused_bitwise_identical_sim(nranks, k):
    mesh, parts, force = _problem(nranks)
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(nranks))
    t_end = 12.5 * solver.dt  # 13 steps: exercises a partial window
    u_ref = solver.run(force, t_end)

    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(nranks))
    u = solver.run(force, t_end, steps_per_exchange=k)
    assert np.array_equal(u, u_ref)
    if nranks == 1:
        assert solver.last_fused["fallback"] == "no interfaces"
        assert solver.last_fused["steps_per_exchange"] == 1
    else:
        assert solver.last_fused["steps_per_exchange"] == k
        assert solver.last_fused["fallback"] is None


def test_fused_k1_is_the_plain_loop():
    mesh, parts, force = _problem(2)
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    t_end = 10.5 * solver.dt
    u_ref = solver.run(force, t_end)
    msgs_ref = sum(st.messages_sent for st in solver.world.stats)

    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    u = solver.run(force, t_end, steps_per_exchange=1)
    assert np.array_equal(u, u_ref)
    assert solver.last_fused["steps_per_exchange"] == 1
    # identical traffic too: k=1 takes the historical code path
    assert sum(st.messages_sent for st in solver.world.stats) == msgs_ref


def test_fused_proc_matches_sim_and_cuts_messages():
    mesh, parts, force = _problem(2)
    k = 4
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    t_end = 15.5 * solver.dt  # 16 steps: windows divide evenly
    u_ref = solver.run(force, t_end)

    sim = SimWorld(2)
    solver = DistributedWaveSolver(mesh, MAT, parts, sim)
    u_sim = solver.run(force, t_end, steps_per_exchange=k)
    assert np.array_equal(u_sim, u_ref)

    with ProcWorld(2) as unfused_world:
        solver = DistributedWaveSolver(mesh, MAT, parts, unfused_world)
        u1 = solver.run(force, t_end)
        msgs_unfused = sum(
            st.messages_sent for st in unfused_world.stats
        )
        exch_unfused = sum(st.exchanges for st in unfused_world.stats)
    with ProcWorld(2) as world:
        solver = DistributedWaveSolver(mesh, MAT, parts, world)
        u_proc = solver.run(force, t_end, steps_per_exchange=k)
        msgs_fused = sum(st.messages_sent for st in world.stats)
        exch_fused = sum(st.exchanges for st in world.stats)
        # transports agree bit for bit, on state and on accounting
        assert np.array_equal(u_proc, u_ref)
        for st_p, st_s in zip(world.stats, sim.stats):
            assert st_p.as_tuple() == st_s.as_tuple()
            assert st_p.exchanges == st_s.exchanges
    assert np.array_equal(u1, u_ref)
    # 16 steps at k=4: exchange rounds drop by exactly 4x, and each
    # round is one message per directed neighbor pair (a fixed handful
    # of collective messages rides along in both runs)
    assert exch_unfused == 2 * 16 and exch_fused == 2 * 4
    assert msgs_unfused - msgs_fused == exch_unfused - exch_fused


# --------------------------------------------- checkpoints and faults


def test_fused_checkpoint_resume_bit_identical(tmp_path):
    mesh, parts, force = _problem(2)
    k = 4
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    t_end = 12.5 * solver.dt  # 13 steps
    u_ref = solver.run(force, t_end, steps_per_exchange=k)

    d = str(tmp_path)
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    # poison the state at the end of window [4, 8): the health check
    # trips before that window's checkpoint is written
    plan = FaultPlan([FaultSpec("nan", rank=1, step=7)])
    with pytest.raises(NumericalHealthError):
        solver.run(
            force, t_end, steps_per_exchange=k, checkpoint_dir=d,
            checkpoint_every=4, faults=plan, health_interval=1,
        )
    # only the window-boundary checkpoint exists (step 3, next_k=4)
    assert collective_latest_step(d, 2) == 3

    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    u = solver.run(
        force, t_end, steps_per_exchange=k, checkpoint_dir=d, resume=True
    )
    assert np.array_equal(u, u_ref)


def test_fused_resume_rejects_misaligned_boundary(tmp_path):
    mesh, parts, force = _problem(2)
    d = str(tmp_path)
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    t_end = 12.5 * solver.dt
    # unfused checkpoints every 5 steps -> latest resume index 10, not
    # a k=4 exchange boundary
    solver.run(force, t_end, checkpoint_dir=d, checkpoint_every=5)
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    with pytest.raises(ValueError, match="exchange boundary"):
        solver.run(
            force, t_end, steps_per_exchange=4, checkpoint_dir=d,
            resume=True,
        )


def test_fused_proc_kill_recovery_bit_identical(tmp_path):
    mesh, parts, force = _problem(2)
    k = 4
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    t_end = 15.5 * solver.dt  # 16 steps
    u_ref = solver.run(force, t_end)

    d = str(tmp_path)
    with ProcWorld(2) as world:
        solver = DistributedWaveSolver(mesh, MAT, parts, world)
        # kill rank 1 at step 6 — mid-window [4, 8), after the window's
        # exchange already happened: recovery must rewind to the step-3
        # boundary checkpoint, not to step 6
        plan = FaultPlan([FaultSpec("kill", rank=1, step=6)])
        u = solver.run(
            force, t_end, steps_per_exchange=k, checkpoint_dir=d,
            checkpoint_every=4, faults=plan,
            retry=RetryPolicy(backoff=0.0),
        )
        assert world.respawns == 1
        assert np.array_equal(u, u_ref)


@pytest.mark.parametrize(
    "k, interval, caught_at",
    [(1, 10, 9), (4, 10, 11), (8, 10, 15), (4, 1, 7), (4, 0, None)],
)
def test_fused_health_cadence_is_the_interval(k, interval, caught_at):
    # the sentinel only sees window boundaries, and must look at the
    # first one after its cadence came due — not every lcm(interval, k)
    # steps (19 and 39 for k = 4 and 8); off by default
    mesh, parts, force = _problem(2)
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    kw = dict(
        steps_per_exchange=k, health_interval=interval,
        faults=FaultPlan.parse("nan:rank=1,step=7"),
    )
    if caught_at is None:
        assert np.isnan(solver.run(force, 23.5 * solver.dt, **kw)).any()
        return
    with pytest.raises(NumericalHealthError) as err:
        solver.run(force, 23.5 * solver.dt, **kw)
    assert err.value.step == caught_at


def test_env_fused_fault_matrix(tmp_path):
    """CI fused fault cell: ``REPRO_FAULTS`` x ProcWorld x
    ``steps_per_exchange=4`` must recover to the unfaulted bits."""
    k = 4
    plan = FaultPlan.from_env() or FaultPlan.parse("kill:rank=1,step=6")
    transport = os.environ.get("REPRO_FAULT_TRANSPORT", "proc")
    if transport != "proc":
        pytest.skip("fused fault matrix cell targets the process "
                    "transport")
    kinds = {s.kind for s in plan.specs}
    mesh, parts, force = _problem(2)
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    t_end = 15.5 * solver.dt
    u_ref = solver.run(force, t_end)
    if "nan" in kinds:
        # state poisoning happens at window boundaries; snap each NaN
        # spec to the end of its window and mirror it onto every rank
        # so no peer blocks on a failed one
        plan = FaultPlan(
            [
                FaultSpec("nan", rank=r, step=min(
                    (s.step // k + 1) * k - 1, 15))
                for s in plan.specs
                for r in range(2)
            ]
        )
    with ProcWorld(2, timeout=5.0) as world:
        solver = DistributedWaveSolver(mesh, MAT, parts, world)
        u = solver.run(
            force, t_end, steps_per_exchange=k,
            checkpoint_dir=str(tmp_path), checkpoint_every=4,
            faults=plan, health_interval=1,
            retry=RetryPolicy(backoff=0.0),
        )
        assert world.respawns >= 1
        assert np.array_equal(u, u_ref)


# ------------------------------------------------- knobs and the model


def test_fused_rejects_bad_k():
    mesh, parts, force = _problem(2)
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    with pytest.raises(ValueError, match="steps_per_exchange"):
        solver.run(force, 4.5 * solver.dt, steps_per_exchange=0)


def test_choose_steps_per_exchange_latency_tradeoff():
    mesh, parts, _ = _problem(2)
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    dist = solver.dist
    # latency-dominated machine: fusing k steps amortizes alpha+gamma,
    # so a deeper halo wins despite the redundant recompute
    slow_net = MachineModel(
        "slow network", flop_rate=5e9, latency=5e-3,
        bandwidth=1e9, dispatch=5e-3,
    )
    best, times = choose_steps_per_exchange(
        dist, slow_net, candidates=(1, 2, 4)
    )
    assert best > 1
    assert times[best] < times[1]
    # free communication: fusing only adds flops, k=1 must win
    fast_net = MachineModel(
        "fast network", flop_rate=5e9, latency=1e-12, bandwidth=1e15,
    )
    best, times = choose_steps_per_exchange(
        dist, fast_net, candidates=(1, 2, 4)
    )
    assert best == 1
    # candidates past the horizon are dropped; ties break small
    best, times = choose_steps_per_exchange(
        dist, fast_net, candidates=(1, 2, 4, 8), nsteps=3
    )
    assert set(times) == {1, 2}


def test_fused_auto_picks_and_stays_bitwise(tmp_path):
    mesh, parts, force = _problem(2)
    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    t_end = 10.5 * solver.dt
    u_ref = solver.run(force, t_end)

    solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
    u = solver.run(force, t_end, steps_per_exchange="auto")
    info = solver.last_fused
    assert info["requested"] == "auto"
    assert info["steps_per_exchange"] >= 1
    assert info["model_times"] and 1 in info["model_times"]
    # whatever the model picked, the trajectory is the same bits
    assert np.array_equal(u, u_ref)


def test_fused_lts_falls_back_to_unfused():
    from repro.materials import LayeredMaterial

    # soft basin over stiff bedrock: a genuinely multi-rate LTS plan
    layered = LayeredMaterial(
        [875.0], vs=[200.0, 1600.0], vp=[400.0, 3200.0],
        rho=[2000.0, 2000.0],
    )
    mesh = uniform_hex_mesh(4, L=1000.0)
    parts = (mesh.elem_centers[:, 2] > 500.0).astype(np.int64)
    force = PointForce(mesh.nnode // 2, mesh.nnode)

    solver = DistributedWaveSolver(mesh, layered, parts, SimWorld(2),
                                   lts=8)
    t_end = 16.5 * solver.dt
    u_ref = solver.run(force, t_end)

    solver = DistributedWaveSolver(mesh, layered, parts, SimWorld(2),
                                   lts=8)
    u = solver.run(force, t_end, steps_per_exchange=4)
    # the clustered rates own the exchange cadence: k clamps to 1 and
    # the clustered trajectory is untouched
    assert solver.last_fused["fallback"] == "lts"
    assert solver.last_fused["steps_per_exchange"] == 1
    assert np.array_equal(u, u_ref)
