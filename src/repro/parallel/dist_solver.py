"""Distributed explicit wave propagation over a pluggable transport.

The paper's solver is bulk-synchronous: per time step each rank applies
its local element operator and exchanges interface partial sums.  This
module executes that loop for real, with the comm/compute overlap the
paper's machine model assumes — each step applies the **interface**
elements first, posts the boundary sends, runs the **interior**
elements while the messages are in flight, then receives and
accumulates (see :mod:`repro.parallel.decomposition` for the
interface-first element ordering and split scatter plans).

There are two domain-sharded schedules — one exchange per global step
and the clustered-LTS march — run by one SPMD **rank program**
(:func:`_rank_program`).  A program takes its
:class:`repro.parallel.simcomm.SimComm`; the transport is the argument:

* :class:`repro.parallel.simcomm.SimWorld` — in-process mailboxes; the
  rank programs are resumed round-robin on one core (each suspends once
  per exchange, between its sends and its receives), so the parallel
  semantics execute for real and deterministically;
* :class:`repro.parallel.transport.ProcWorld` — persistent worker
  processes exchanging boundary data through double-buffered
  shared-memory channels, so ``run()`` actually uses N cores.  Each
  worker marches its own rank's full time loop; only boundary partial
  sums and the final gathered displacement cross process boundaries.

Both worlds are handed the same program objects and payloads through
their ``run_spmd``, so per-rank arithmetic, operation order and
:class:`TrafficStats` are the same by construction; the transport
equivalence tests (``np.array_equal`` trajectories, traffic matching
message for message) pin the two *transports* against each other.

The programs hold no time loop of their own.  A rank's grid points are
a *row set* of the serial solver, built by the same
:func:`~repro.solver.wave_solver.restrict`, and the rank runs the
serial solver's one loop on it,
:func:`~repro.solver.wave_solver.march_clustered` — over one
:func:`~repro.solver.wave_solver.whole_level` every step, or over the
rank's clusters under LTS — with its halo exchange as the stiffness
step (``_RankFrame.exchange``: interface product, sends, interior
product, suspend, receives, accumulate; under LTS only the
interface-rate level's).  So a one-rank run is the serial
``stacey_c1=False`` run bit for bit, and more ranks differ only by the
order of the interface sums.  Resume, poisoning, the health sentinel
and checkpoints are the loop's
:class:`~repro.solver.frame.MarchFrame`, which ``_RankFrame`` extends
with what needs a ``comm``: the exchange, the top-of-step hooks, the
phase timeline and the result write.

Scope: lumped mass, Lysmer absorbing damping, conforming meshes — a
rank's ``restrict`` call passes no ``c1`` coupling, no ``B`` and no
Rayleigh term.  Adding them is three arguments of that call plus
ghosting the masters of a rank's hanging nodes into its node set, not
another update body or loop.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.fem.assembly import ElasticOperator, lumped_mass
from repro.mesh.hexmesh import HexMesh
from repro.parallel.decomposition import rank_partitions
from repro.parallel.transport import (
    WorkerFailure,
    attach_shared_array,
    create_shared_array,
    release_shared_array,
)
from repro.resilience import RetryPolicy, validate_cfl
from repro.telemetry.timeline import MergedTimeline, RankTimeline
from repro.physics.cfl import elem_stable_dt, stable_timestep
from repro.physics.elastic import lame_from_velocities
from repro.physics.stacey import StaceyBoundary
from repro.solver.checkpoint import CheckpointManager, collective_latest_step
from repro.solver.frame import MarchFrame
from repro.solver.lts import bin_rates, build_lts_plan, resolve, smooth_rates
from repro.solver.wave_solver import (
    DEFAULT_ABSORBING,
    cluster_levels,
    elastic_level_operator,
    forcing,
    march_clustered,
    restrict,
    whole_level,
)

from repro import telemetry


class _RankFrame(MarchFrame):
    """The :class:`~repro.solver.frame.MarchFrame` of one rank program,
    plus what needs its ``comm``.

    Opt-in through the payload: a per-rank
    :class:`~repro.solver.checkpoint.CheckpointManager` (restart pair
    every ``ckpt_every`` steps, files ``rank{r}_{step}.ckpt``; a run
    restarts from the collective ``resume_step``), a
    :class:`~repro.resilience.FaultPlan`, ``health_interval`` for the
    NaN/Inf sentinel, and a :class:`RankTimeline` (the master's
    telemetry flag does not propagate into a worker process, so
    recording is requested through the payload).  A one-level
    march's stride is 1, a clustered one's the sync rate.  On top
    of the frame's resume and boundary duties: fault-plan binding, the
    top-of-step hooks, the halo exchange that is the rank's stiffness
    step, the phase timeline and compute / wait split it records, and
    the shared-array result write.
    """

    def __init__(self, comm, p, *, stride=1):
        rank = comm.rank
        super().__init__(
            p["nsteps"], stride=stride, rank=rank,
            checkpoint=(
                CheckpointManager(
                    p["ckpt_dir"], p.get("ckpt_every") or 0,
                    keep=p.get("ckpt_keep", 3), prefix=f"rank{rank}",
                )
                if p.get("ckpt_dir")
                else None
            ),
            faults=p.get("faults"),
            health_interval=int(p.get("health_interval", 0)),
        )
        self.comm = comm
        self.p = p
        self.tl = (
            RankTimeline(rank, self.nsteps,
                         trace_id=telemetry.get_trace_context())
            if p.get("timeline")
            else None
        )
        #: ``(nsteps, phases)`` durations to fill in, or None; the
        #: clock is read either way (``t_compute`` / ``t_wait`` are
        #: always returned), recording a timeline just keeps the phases
        self.dur = self.tl.durations if self.tl is not None else None
        self.t_compute = self.t_wait = 0.0
        # the open step: its index, start, wait and suspended seconds,
        # and whether it exchanged
        self._k, self._t0, self._wait, self._away = 0, 0.0, 0.0, 0.0
        self._exchanged = False
        # kill and send-path faults (drop / delay / corrupt) exercise
        # the worker-process machinery, so only an endpoint with a
        # fault slot arms them: an in-process kill would ``os._exit``
        # the caller.  State poisoning applies on every transport.
        self._armed = self.faults is not None and hasattr(
            comm.world, "fault_plan"
        )
        if self._armed:
            comm.world.fault_plan = self.faults

    def begin_step(self, k: int) -> None:
        """Top-of-step hooks — scheduled kill, the step the transport's
        send faults are keyed on, liveness ping — then open step ``k``
        of the timeline."""
        if self._armed:
            self.faults.on_step_begin(self.rank, k)
            self.comm.world.fault_step = k
        self.comm.heartbeat(k)
        self._k, self._wait, self._away = k, 0.0, 0.0
        self._exchanged = False
        self._t0 = time.perf_counter()

    def exchange(self, op, neighbors):
        """``op``'s stiffness step with this rank's halo exchange inside
        it: apply the interface elements, post the boundary partial
        sums, apply the interior elements while they are in flight,
        suspend, receive and accumulate.  Sends complete without
        waiting, so on the process transport the interior product
        genuinely overlaps the exchange.  ``op`` is split
        (``split_elems``) with the interface elements first;
        ``neighbors`` are ``(rank, rows)`` pairs, the shared grid points
        as rows of ``op``'s state."""
        comm = self.comm
        rank = comm.rank
        rbuf = {o: np.empty((len(loc), 3)) for o, loc in neighbors}
        clock = time.perf_counter

        def step(u, Ku):
            op.matvec_interface(u, Ku)
            t1 = clock()
            for o, loc in neighbors:
                comm.Send(Ku[loc], o, tag=rank)
            t2 = clock()
            op.matvec_interior_acc(u, Ku)
            t3 = clock()
            yield  # sends posted, nothing received yet
            t3r = clock()
            for o, loc in neighbors:
                comm.Recv(o, tag=o, out=rbuf[o])
            t4 = clock()
            for o, loc in neighbors:
                Ku[loc] += rbuf[o]
                comm.add_flops(3 * len(loc))
            self._wait += (t2 - t1) + (t4 - t3r)
            # the time spent suspended is charged to no phase
            self._away += t3r - t3
            self._exchanged = True
            dur = self.dur
            if dur is not None:
                k = self._k
                dur[k, 0] = t1 - self._t0  # up to the interface product
                dur[k, 1] = t2 - t1  # send
                dur[k, 2] = t3 - t2  # interior
                dur[k, 3] = t4 - t3r  # recv

        return step

    def boundary(self, s, state, snapshot) -> None:
        """Close the open step — its busy time less its wait is
        compute; with a timeline, what follows the receives is the
        update phase (all of it, at a fine index that did not
        exchange) — then the frame's boundary duties."""
        busy = time.perf_counter() - self._t0 - self._away
        self.t_wait += self._wait
        self.t_compute += busy - self._wait
        dur = self.dur
        if dur is not None:
            k = self._k
            if self._exchanged:
                dur[k, 4] = busy - dur[k, :4].sum()
            else:
                dur[k, 0] = busy
        super().boundary(s, state, snapshot)

    def finish(self, u, **extra) -> dict:
        """Unbind the fault plan, write the grid points this rank is
        the lowest owner of into the named shared result array, and
        build the program's return value."""
        if self._armed:
            self.comm.world.fault_plan = None
        name, nnode_global = self.p["result"]
        shm, res = attach_shared_array(name, (nnode_global, 3))
        res[self.p["gather_nodes"]] = u[self.p["gather_local"]]
        del res  # drop the exported view before closing the mapping
        shm.close()
        out = {
            "nsteps": self.nsteps, "t_compute": self.t_compute,
            "t_wait": self.t_wait, **extra,
        }
        if self.tl is not None:
            out["timeline"] = self.tl.to_payload()
        return out


def _rank_program(comm, payload):
    """SPMD rank program: one rank's march over its grid points — the
    serial solver's loop over one level of all of them, or over its
    clusters when the payload carries element rates — with the halo
    exchange as the stiffness step.

    Under the clustered schedule only the common interface-rate level
    exchanges, so ranks synchronize ``r_int`` times less often; its
    frame acts only at full sync boundaries (multiples of the global
    coarsest rate ``r_sync``, identical on every rank), which keeps the
    collective-restart recovery working unchanged.  The final
    displacement lands in the named shared result array; returns
    wall time split into compute and communication wait, and the
    firings per rate (every step is a rate-1 firing when not clustered).
    """
    p = payload
    clustered = "rates" in p
    frame = _RankFrame(comm, p, stride=p["r_sync"] if clustered else 1)
    force = forcing(p["force_fn"], p["result"][1], p["dt"], rows=p["gnodes"])
    if clustered:
        # the level at the common interface rate carries the rank's
        # interface elements (clamped to exactly that rate and ordered
        # first, so they lead its own elements): its operator is split
        # and it fires through the exchange; every other level is
        # purely rank-local
        r_int = p["r_int"]
        split = p["n_iface"] if r_int > 0 and p["n_iface"] > 0 else None
        levels = cluster_levels(
            build_lts_plan(p["conn"], p["nloc"], dt=p["dt"], rates=p["rates"]),
            elastic_level_operator(
                p["conn"], p["h"], p["lam"], p["mu"],
                split=lambda lv: split if lv.rate == r_int else None,
            ),
            lambda lv, local: restrict(
                p["m"], p["C"], lv.rate * p["dt"], rows=lv.own_nodes
            ),
        )
        for lev in levels:
            if lev["K"].split_elems is None:
                continue
            # every shared grid point is an own node of the level, and
            # own nodes lead its local rows
            own = lev["own"]
            neighbors = [(o, np.searchsorted(own, loc))
                         for o, loc in p["neighbors"]]
            for (_, loc), (_, rows) in zip(p["neighbors"], neighbors):
                assert np.all(rows < len(own))
                assert np.array_equal(own[rows], loc)
            lev["exchange"] = frame.exchange(lev["K"], neighbors)
    else:
        op = ElasticOperator(
            p["conn"], p["h"], p["lam"], p["mu"], p["nloc"],
            split_elems=p["n_iface"],
        )
        levels = [{
            **whole_level(op, restrict(p["m"], p["C"], p["dt"])),
            "exchange": frame.exchange(op, p["neighbors"]),
        }]
    pair, fired = yield from march_clustered(
        levels, force, frame, count=lambda _kind, n: comm.add_flops(n),
        resume={"step": p.get("resume_step")},
    )
    return frame.finish(
        pair[1], lts_fired={lev["rate"]: n for lev, n in zip(levels, fired)}
    )


class _RankRates(NamedTuple):
    """The clustered schedule of a partitioned mesh
    (:meth:`DistributedWaveSolver._lts_setup`): the global element
    rates, the common interface rate ``r_int`` and the sync rate
    ``max_rate`` (the coarsest rank's coarsest rate)."""

    rates: np.ndarray
    r_int: int
    max_rate: int
    trivial: bool


class DistributedWaveSolver:
    """SPMD central-difference elastodynamics on an element partition.

    Each rank holds copies of the grid points its elements touch; nodal
    quantities that must be globally consistent (mass, boundary
    damping) are interface-summed once at setup, and the stiffness
    partial sums are exchanged every step.

    ``world`` selects the transport the rank programs run over: a
    :class:`~repro.parallel.simcomm.SimWorld` resumes them round-robin
    in-process (mailbox exchange, one core); a
    :class:`~repro.parallel.transport.ProcWorld` dispatches them to its
    persistent worker processes (shared-memory exchange, N cores).  On
    the process transport ``force_fn`` must be picklable (a
    module-level function or callable object).
    """

    def __init__(
        self,
        mesh: HexMesh,
        material,
        parts: np.ndarray,
        world,
        *,
        absorbing: Sequence[tuple[int, int]] = DEFAULT_ABSORBING,
        dt: float | None = None,
        cfl_safety: float = 0.5,
    ):
        if len(np.unique(mesh.elem_level)) > 1:
            raise ValueError(
                "DistributedWaveSolver requires a conforming mesh "
                "(hanging-node projection is not distributed)"
            )
        self.mesh = mesh
        self.world = world
        # one global material query, sliced per rank below (and again
        # for the worker payloads) — never queried per rank
        vs, vp, rho = material.query(mesh.elem_centers)
        lam, mu = lame_from_velocities(vs, vp, rho)
        self._lam, self._mu = lam, mu
        self._vp = vp
        #: one :class:`~repro.parallel.decomposition.RankPartition` per rank
        self.ranks = rank_partitions(mesh, parts, world.nranks)
        self.dt = dt if dt is not None else stable_timestep(
            mesh.elem_h, vp, safety=cfl_safety
        )

        # globally consistent nodal mass and boundary damping, sliced
        # per rank (setup-time exchange, accounted once)
        m_global = lumped_mass(mesh.conn, mesh.elem_h, rho, mesh.nnode)
        C_global, _ = StaceyBoundary(mesh, absorbing).matrices(
            lam, mu, rho, include_c1=False
        )
        # kept whole and sliced per rank payload
        self._m_global = m_global
        self._C_global = C_global
        for r, rp in enumerate(self.ranks):
            # account the setup exchange (mass + damping on interfaces)
            for o, (loc, _) in rp.shared_with.items():
                world.stats[r].record_send(r, o, 8 * 4 * len(loc))
        self._lts_cache: tuple | None = None
        #: merged per-rank timeline of the most recent :meth:`run`,
        #: populated when telemetry is enabled at run time
        self.last_timeline: MergedTimeline | None = None
        #: what the rank programs of the most recent :meth:`run`
        #: returned, one dict per rank (``t_compute``, ``t_wait``,
        #: ``nsteps``, ``lts_fired``: the firings per rate)
        self.last_timings: list[dict] | None = None

    def _lts_setup(self, max_rate: int) -> _RankRates:
        """Global clustered-LTS plan for the partitioned mesh.

        Element rates are binned and 2-to-1 smoothed **globally**, then
        every *boundary* element (one touching a grid point shared
        between ranks) is clamped down to the single interface rate
        ``r_int = min(boundary rates)`` and the rates re-smoothed.  The
        clamp only lowers rates, and afterwards every node adjacent to
        a boundary element has rate at least ``r_int / 2``, so the
        re-smoothing never drags a boundary element below ``r_int`` —
        every shared grid point ends up at exactly ``r_int`` on every
        rank.  That gives one common exchange cadence: ranks trade
        interface partial sums only when the ``r_int`` level fires,
        i.e. ``r_int`` times fewer handoffs than the global-dt loop.

        Per-rank plans are built from each rank's slice of the global
        rates; they agree across ranks because a shared node's adjacent
        elements are all boundary (rate ``r_int``) and interior nodes
        see only rank-local elements.
        """
        cached = self._lts_cache
        if cached is not None and cached[0] == max_rate:
            return cached[1]
        mesh = self.mesh
        elem_dt = elem_stable_dt(mesh.elem_h, self._vp, safety=1.0)
        rates = smooth_rates(
            mesh.conn, bin_rates(elem_dt, max_rate=max_rate), mesh.nnode
        )
        shared = np.zeros(mesh.nnode, dtype=bool)
        for rp in self.ranks:
            for _, gids in rp.shared_with.values():
                shared[gids] = True
        boundary = shared[mesh.conn].any(axis=1)
        r_int = 0
        if boundary.any():
            r_int = int(rates[boundary].min())
            rates[boundary] = r_int
            rates = smooth_rates(mesh.conn, rates, mesh.nnode)
            assert int(rates[boundary].min()) == r_int
        plans = [
            build_lts_plan(
                rp.local_conn, len(rp.nodes), dt=self.dt,
                rates=rates[rp.elements],
            )
            for rp in self.ranks
        ]
        ctx = _RankRates(
            rates, r_int, max(p.max_rate for p in plans),
            bool(np.all(rates == 1)),
        )
        self._lts_cache = (max_rate, ctx)
        return ctx

    def run(
        self,
        force_fn: Callable[[float], np.ndarray] | object,
        t_end: float,
        *,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 0,
        checkpoint_keep: int = 3,
        resume: bool = False,
        faults=None,
        health_interval: int = 0,
        retry: RetryPolicy | None = None,
        lts: int | bool = 0,
    ) -> np.ndarray:
        """March to ``t_end``; ``force_fn`` gives the *global* nodal
        force field — a :class:`~repro.sources.fault.SourceCollection`,
        a ``(t, out)`` or a ``(t)`` callable, as for
        :meth:`ElasticWaveSolver.run` — and each rank reads its slice,
        as if the sources had been assigned to owning ranks.  Returns the final global
        displacement, gathered deterministically (each grid point from
        its lowest co-owning rank) for verification.

        Resilience (all opt-in): with ``checkpoint_dir`` +
        ``checkpoint_every`` each rank durably snapshots its leapfrog
        restart pair (files ``rank{r}_{step}.ckpt`` in one directory);
        ``resume=True`` restarts from the last *collective* checkpoint
        (the newest step every rank holds a valid file for) instead of
        rest — bit-identical to the uninterrupted run.  On the process
        transport a :class:`~repro.parallel.transport.WorkerFailure`
        (dead, hung, or erroring rank) triggers automatic recovery when
        checkpointing is on: respawn the worker pool, rewind to the
        last collective checkpoint, retry under ``retry`` (default
        :class:`~repro.resilience.RetryPolicy`) with exponential
        backoff.  ``faults`` takes a
        :class:`~repro.resilience.FaultPlan` for deterministic fault
        injection; ``health_interval`` arms the NaN/Inf sentinel (and
        re-validates the CFL bound up front) every that many steps.

        ``lts`` (off by default; True, or an int rate cap) turns on
        clustered local time stepping — see :meth:`_lts_setup`.  Ranks then
        exchange interface partial sums only at the common interface
        rate and synchronize (checkpoint / poison / health-check) only
        at multiples of the coarsest rate; ``nsteps`` is rounded up to
        the next sync boundary.  ``lts=off`` runs the global-dt loop
        bit-identically to before; a clustered run returns the state at
        the (possibly later) rounded end time.
        """
        nsteps = int(np.ceil(t_end / self.dt))
        if health_interval:
            validate_cfl(self.dt, self.mesh.elem_h, self._vp)
        ctx = resolve(lts, self._lts_setup)
        if ctx is not None:
            nsteps = -(-nsteps // ctx.max_rate) * ctx.max_rate
        with telemetry.span("dist.run") as _s:
            _s.add("nsteps", nsteps)
            _s.add("nranks", self.world.nranks)
            if ctx is not None:
                _s.add("lts_r_int", ctx.r_int)
                _s.add("lts_r_sync", ctx.max_rate)
            return self._run_spmd(
                force_fn, nsteps,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                checkpoint_keep=checkpoint_keep,
                resume=resume, faults=faults,
                health_interval=health_interval, retry=retry,
                lts_ctx=ctx,
            )

    # ------------------------------------------------ running the ranks

    def _rank_payloads(self, common: dict, lts_ctx) -> list[dict]:
        """One rank-program payload per rank: ``common``, the rank's
        gather lists, its subdomain — local connectivity plus the
        element (size, material) and node (mass, damping) slices, raw:
        every program hoists its own coefficients — and neighbors, and
        under LTS its element rates (which pick the clustered march).
        Everything is a plain numpy array, so a payload pickles straight
        into a worker."""
        payloads = []
        for rp in self.ranks:
            pl = dict(
                common,
                conn=rp.local_conn,
                h=self.mesh.elem_h[rp.elements],
                lam=self._lam[rp.elements],
                mu=self._mu[rp.elements],
                nloc=len(rp.nodes),
                n_iface=rp.n_iface_elems,
                m=self._m_global[rp.nodes],
                C=self._C_global[rp.nodes],
                gnodes=rp.nodes,
                gather_nodes=rp.gather_nodes,
                gather_local=rp.gather_local,
                neighbors=[
                    (o, loc) for o, (loc, _) in rp.shared_with.items()
                ],
            )
            if lts_ctx is not None:
                pl.update(
                    rates=lts_ctx.rates[rp.elements],
                    r_int=lts_ctx.r_int,
                    r_sync=lts_ctx.max_rate,
                )
            payloads.append(pl)
        return payloads

    def _run_spmd(self, force_fn, nsteps, *, checkpoint_dir=None,
                  checkpoint_every=0, checkpoint_keep=3, resume=False,
                  faults=None, health_interval=0, retry=None,
                  lts_ctx=None):
        """Hand the rank program to the world and gather the result; on
        a :class:`WorkerFailure` (process transport only — in-process a
        rank's exception propagates as itself) respawn, rewind to the
        last collective checkpoint and retry."""
        world = self.world
        mesh = self.mesh
        max_msg = max(
            (
                24 * len(loc)
                for rp in self.ranks
                for (loc, _) in rp.shared_with.values()
            ),
            default=0,
        )
        if world.slot_bytes and max_msg > world.slot_bytes:
            raise ValueError(
                f"largest interface message is {max_msg} bytes but the "
                f"ProcWorld channels hold {world.slot_bytes}; rebuild the "
                f"world with slot_bytes >= {max_msg}"
            )
        want_timeline = telemetry.enabled()
        recoverable = bool(checkpoint_dir) and checkpoint_every > 0
        retry = retry if retry is not None else RetryPolicy()
        resume_step = None
        if resume and checkpoint_dir:
            resume_step = collective_latest_step(
                checkpoint_dir, world.nranks
            )
        shm, result = create_shared_array((mesh.nnode, 3))
        try:
            base = self._rank_payloads(
                {
                    "dt": self.dt,
                    "nsteps": nsteps,
                    "force_fn": force_fn,
                    "result": (shm.name, mesh.nnode),
                    "timeline": want_timeline,
                    "ckpt_dir": checkpoint_dir,
                    "ckpt_every": checkpoint_every,
                    "ckpt_keep": checkpoint_keep,
                    "health_interval": health_interval,
                },
                lts_ctx,
            )
            attempt = 0
            while True:
                result.fill(0.0)
                # the only payload entries a recovery attempt changes
                payloads = [
                    dict(pl, resume_step=resume_step, faults=faults)
                    for pl in base
                ]
                try:
                    timings = world.run_spmd(_rank_program, payloads)
                    break
                except WorkerFailure as wf:
                    telemetry.count("resilience.worker_failures")
                    # black box first: the flight recorder snapshot is
                    # most useful before respawn/rewind mutate state
                    telemetry.flight_dump(f"worker_failure: {wf}")
                    if not recoverable or attempt >= retry.max_retries:
                        raise
                    attempt += 1
                    t_fail = time.perf_counter()
                    # respawn unconditionally: even a program-level
                    # failure leaves the channels with in-flight
                    # residue, so the pool gets fresh ones
                    world.respawn()
                    # injected faults are keyed on the attempt, so a
                    # deterministic kill does not re-fire on retry
                    faults = faults.retried() if faults is not None else None
                    retry.wait(attempt)
                    resume_step = collective_latest_step(
                        checkpoint_dir, world.nranks
                    )
                    tr = telemetry.current_tracer()
                    if tr is not None:
                        # annotate the active request's trace with the
                        # recovery window so a fault-injected request
                        # still stitches into one complete trace
                        tr.record_event(
                            ("dist.run", "recovery"),
                            t_fail,
                            time.perf_counter() - t_fail,
                            counters={
                                "attempt": 1,
                                "resume_step": resume_step,
                            },
                        )
            self.last_timings = timings
            if want_timeline:
                self.last_timeline = MergedTimeline(
                    [
                        RankTimeline.from_payload(t["timeline"])
                        for t in timings
                    ]
                )
            out = result.copy()
        finally:
            del result  # drop the exported view before closing
            release_shared_array(shm)
        return out
