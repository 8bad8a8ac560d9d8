"""Telemetry-off / resilience-idle / service-idle overhead gate.

The telemetry subsystem promises *near-zero cost when disabled*, the
resilience layer promises *near-zero cost when armed but idle*
(health sentinel at its default interval, a checkpoint manager bound
but never due), and the simulation service promises *near-zero cost
when it has nothing to coalesce* (a warm engine behind the
synchronous scheduler adds only a cache lookup and the admission and
demux bookkeeping per request).
This script holds each promise to one number.  For the first two it
marches the same quickstart-scale elastic problem two ways, through
the one elastic loop over a single level of every node
(:func:`~repro.solver.wave_solver.march_clustered` over a
:func:`~repro.solver.wave_solver.whole_level`):

* the instrumented :meth:`ElasticWaveSolver.run` with telemetry
  disabled and resilience in the shipping configuration (default
  health interval, a bound-but-never-due checkpoint manager) — it
  drains the march with ``traced=True``;
* the *bare* march — the same generator on the solver's own operator
  and row set, drained with ``traced=False``, no hooks and a frame with
  no checkpoint, fault plan or health check.

Both runs must produce bitwise-identical final states, and the
instrumented run must be within ``--tol`` (default 2%) of the bare
one.  Being the same code, the bare side cannot drift from the
solver's step.

Shared CI runners are noisy enough (scheduler quanta, frequency
phases, noisy neighbours) that a single timing pair cannot resolve a
2% tolerance, so the gate uses two floor-seeking estimators and
retries: each attempt times ``--repeat`` order-alternating
instrumented/bare pairs, then the overhead estimate is the smaller
of (a) the ratio of pooled minima across all attempts so far — the
classic noise floor, monotonically improving — and (b) the best
per-attempt median of adjacent-pair ratios — adjacent pairs share
frequency drift, so it cancels.  The gate passes as soon as either
estimator is within tolerance and fails only when ``--attempts``
rounds (with a breather in between) never get there.  A true
regression shifts *both* estimators up by its full size, so real
slowdowns still fail every attempt.

The service gate reuses the same estimators on a different pair: a
warm :class:`~repro.service.Engine` behind a B=1 zero-wait
:class:`~repro.service.CoalescingScheduler` (the idle configuration —
no co-batchable traffic ever arrives) against a direct
``ForwardSimulation.run`` of the identical request, after asserting
the two produce bitwise-identical seismograms.

Exits nonzero when any gate fails — wire it into CI after the test
suite::

    python benchmarks/check_overhead.py            # both gates
    python benchmarks/check_overhead.py --tol 0.05 --repeat 9
    python benchmarks/check_overhead.py --skip-service
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time

import numpy as np

from repro import telemetry
from repro.solver.checkpoint import CheckpointManager
from repro.materials import HomogeneousMaterial
from repro.mesh import extract_mesh
from repro.octree import build_adaptive_octree
from repro.solver import ElasticWaveSolver
from repro.solver.frame import MarchFrame
from repro.solver.wave_solver import (
    drain,
    forcing,
    march_clustered,
    whole_level,
)

MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
L = 1000.0


def build_solver(n: int) -> ElasticWaveSolver:
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=int(np.log2(n))
    )
    mesh = extract_mesh(tree, L=L)
    return ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)


def make_force(solver: ElasticWaveSolver):
    node = solver.nnode // 2

    def force(t, out):
        out.fill(0.0)
        out[node, 2] = 1e9 * np.exp(-(((t - 0.05) / 0.02) ** 2))
        return out

    return force


def bare_run(solver: ElasticWaveSolver, force, nsteps: int) -> np.ndarray:
    """The march :meth:`ElasticWaveSolver.run` drains, run bare: no
    spans, hooks, checkpoint, fault plan or health check — the
    generator, the forcing adapter and the flop count stay, so both
    sides of the ratio pay the same step.  Returns the final ``u``."""
    (_, u), _ = drain(march_clustered(
        [whole_level(solver.K, solver.row_set)],
        forcing(force, solver.nnode, solver.dt), MarchFrame(nsteps),
        count=solver.flops.add,
    ))
    return u


def check_bare(
    solver: ElasticWaveSolver, force, nsteps: int, checkpoint
) -> bool:
    """Bitwise-compare the bare march's final state u^nsteps against the
    instrumented solver's (the callback reports pre-update states, so
    march one extra step to observe u^nsteps)."""
    out = {}

    def cb(k, t, u):
        if k == nsteps:
            out["u"] = u.copy()

    solver.run(
        force, (nsteps + 0.5) * solver.dt, callback=cb, checkpoint=checkpoint
    )
    return np.array_equal(out["u"], bare_run(solver, force, nsteps))


def floor_gate(
    label: str,
    time_instr,
    time_ref,
    *,
    repeat: int,
    attempts: int,
    tol: float,
) -> float:
    """Run the two floor-seeking estimators over order-alternating
    instrumented/reference timing pairs until either estimator clears
    ``tol`` or ``attempts`` rounds are exhausted; returns the final
    overhead estimate (compare against ``tol`` for pass/fail)."""
    t_instr: list[float] = []
    t_ref: list[float] = []
    best_median = float("inf")
    overhead = float("inf")
    for attempt in range(attempts):
        ratios = []
        for i in range(repeat):
            # alternate which side runs first so a frequency ramp
            # inside a pair cannot systematically favour one side
            if (i + attempt) % 2 == 0:
                a, b = time_instr(), time_ref()
            else:
                b, a = time_ref(), time_instr()
            t_instr.append(a)
            t_ref.append(b)
            ratios.append(a / b)
        floor = min(t_instr) / min(t_ref) - 1.0
        best_median = min(best_median, statistics.median(ratios) - 1.0)
        overhead = min(floor, best_median)
        print(
            f"[{label}] attempt {attempt + 1}/{attempts}: "
            f"floor {min(t_instr) * 1e3:.2f}/{min(t_ref) * 1e3:.2f} ms "
            f"({floor * 100:+.2f}%), "
            f"best pair-median {best_median * 100:+.2f}%"
        )
        if overhead <= tol:
            break
        time.sleep(0.3)  # let a noisy-host phase pass before retrying
    return overhead


def service_gate(args) -> int:
    """Idle-service overhead: Engine + scheduler routed requests vs
    direct ``ForwardSimulation.run`` calls.

    With ``--policy-armed`` the routed side also pays the full
    resilience policy on every request — admission-control depth
    check, deadline minting at admission plus the dispatch/demux expiry
    checks — proving the armed-but-never-triggered policy machinery
    fits the same ≤tol budget."""
    from repro.materials import HomogeneousMaterial
    from repro.service import (
        CoalescingScheduler,
        Engine,
        ForwardRequest,
        ServicePolicy,
        SimulationSpec,
    )

    spec = SimulationSpec(
        material=HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0),
        L=8000.0,
        fmax=0.4,
        box_frac=(1, 1, 0.5),
        max_level=4,
    )
    from repro.sources import idealized_strike_slip

    scenario = idealized_strike_slip(L=spec.L)
    rec = np.array([[4000.0, 4000.0, 0.0], [2000.0, 3000.0, 0.0]])
    engine = Engine()
    sim = engine.simulation(spec)  # warm the cache: the gate times the
    t_end = (args.steps - 0.5) * sim.dt  # steady state, not the build
    request = ForwardRequest(spec, scenario, t_end, receivers=rec)
    policy = None
    if args.policy_armed:
        # every knob on, none ever triggering: a deep queue bound, a
        # generous deadline
        policy = ServicePolicy(max_queue_depth=1024, deadline=600.0)
    # one request at a time: each dispatches alone, immediately — the
    # idle configuration whose per-request cost this gate bounds
    scheduler = CoalescingScheduler(engine, max_batch=1, policy=policy)
    label = "service+policy" if args.policy_armed else "service"
    try:
        # correctness first: the routed path must be bitwise the
        # direct path, or the timing comparison is meaningless
        routed = scheduler.map_wait([request])[0]
        direct = sim.run(
            scenario, t_end, receivers=rec
        ).seismograms
        if not np.array_equal(routed.data, direct.data):
            print("FAIL: service-routed seismograms diverge from a "
                  "direct ForwardSimulation.run — the idle service "
                  "changed the answer")
            return 1

        def time_routed() -> float:
            # a fresh request per iteration so an armed policy mints
            # a fresh deadline each time (the real per-request cost)
            r = ForwardRequest(spec, scenario, t_end, receivers=rec)
            t0 = time.perf_counter()
            scheduler.map_wait([r])[0]
            return time.perf_counter() - t0

        def time_direct() -> float:
            t0 = time.perf_counter()
            sim.run(scenario, t_end, receivers=rec)
            return time.perf_counter() - t0

        overhead = floor_gate(
            label, time_routed, time_direct,
            repeat=args.repeat, attempts=args.attempts, tol=args.tol,
        )
    finally:
        scheduler.close()
        engine.close()
    print(
        f"idle-{label} overhead: {overhead * 100:+.2f}% "
        f"(tol {args.tol * 100:.1f}%)"
    )
    if overhead > args.tol:
        print("FAIL: the idle service costs more than the tolerance")
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=8,
                    help="mesh is size^3 elements (power of two)")
    ap.add_argument("--steps", type=int, default=150)
    ap.add_argument("--repeat", type=int, default=6,
                    help="interleaved instrumented/reference pairs per "
                         "attempt")
    ap.add_argument("--attempts", type=int, default=5,
                    help="measurement rounds before declaring failure")
    ap.add_argument("--tol", type=float, default=0.02,
                    help="allowed relative overhead of the instrumented "
                         "side over the reference (0.02 = 2%%)")
    ap.add_argument("--skip-service", action="store_true",
                    help="run only the telemetry/resilience gate")
    ap.add_argument("--skip-telemetry", action="store_true",
                    help="run only the idle-service gate")
    ap.add_argument("--exporter-armed", action="store_true",
                    help="arm the flight recorder and construct both "
                         "exporters before timing — the armed-but-idle "
                         "observability stack must fit the same budget")
    ap.add_argument("--policy-armed", action="store_true",
                    help="arm the full service resilience policy "
                         "(admission control, deadlines) on "
                         "the routed side of the service gate — the "
                         "never-triggered policy must fit the same "
                         "budget")
    args = ap.parse_args(argv)

    if args.exporter_armed:
        # exporters/recorder exist but telemetry stays off: the gate
        # proves arming them adds nothing to the disabled hot path
        flight_dir = tempfile.mkdtemp(prefix="overhead_flight_")
        telemetry.arm_flight_recorder(flight_dir)
        telemetry.MetricsJsonlExporter(
            tempfile.mktemp(prefix="overhead_metrics_", suffix=".jsonl")
        )
        telemetry.StatusFile(
            tempfile.mktemp(prefix="overhead_status_", suffix=".json")
        )

    if args.skip_telemetry:
        if telemetry.enabled():
            telemetry.disable()
        return service_gate(args)

    if telemetry.enabled():
        telemetry.disable()
    solver = build_solver(args.size)
    force = make_force(solver)
    # resilience armed but idle: the manager is bound but interval=0
    # means no step is ever due, so the loop pays only the dispatch
    ckpt_dir = tempfile.mkdtemp(prefix="overhead_ckpt_")
    ckpt = CheckpointManager(ckpt_dir, interval=0)

    # correctness first: the instrumentation must not change the
    # answer, or the timing comparison measures two different codes
    if not check_bare(solver, force, args.steps, ckpt):
        print("FAIL: the bare march diverged from ElasticWaveSolver.run — "
              "the instrumentation changed the solver's time step")
        return 1

    # both sides march exactly args.steps steps
    t_end = (args.steps - 0.5) * solver.dt

    def time_instr() -> float:
        t0 = time.perf_counter()
        solver.run(force, t_end, checkpoint=ckpt)
        return time.perf_counter() - t0

    def time_bare() -> float:
        t0 = time.perf_counter()
        bare_run(solver, force, args.steps)
        return time.perf_counter() - t0

    overhead = floor_gate(
        "telemetry", time_instr, time_bare,
        repeat=args.repeat, attempts=args.attempts, tol=args.tol,
    )

    print(
        f"telemetry-off overhead: {overhead * 100:+.2f}% "
        f"(tol {args.tol * 100:.1f}%)"
    )
    if overhead > args.tol:
        print("FAIL: disabled telemetry costs more than the tolerance")
        return 1
    print("OK")
    if args.skip_service:
        return 0
    print()
    return service_gate(args)


if __name__ == "__main__":
    sys.exit(main())
