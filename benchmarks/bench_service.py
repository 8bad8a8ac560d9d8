"""Latency and throughput of the warm simulation service.

Two questions, matching the service's two claims:

* **Warm setup** — how much of a repeat scenario run the artifact
  cache removes: wall time of ``Engine.simulation(spec)`` cold (mesh
  generation + assembly + plan construction), warm (memory-tier hit),
  and disk-warm (a fresh process loading the CRC-verified disk tier).
* **Coalesced throughput** — per-scenario wall time of B
  independently-submitted requests packed by the
  :class:`CoalescingScheduler` into one fused ``run_batch`` loop,
  against the same B requests run solo through the warm engine, and
  against a *direct* ``run_batch`` call (the scheduler's overhead
  ceiling), at B in {1, 4, 16}.

Usage::

    python benchmarks/bench_service.py --json BENCH_service.json
    python benchmarks/bench_service.py --smoke     # CI-sized

Emits ``BENCH_service.json``; the CI smoke asserts warm setup is
>= 10x faster than cold and coalesced dispatch tracks the direct
batched loop.
"""

from __future__ import annotations

import argparse
import json
import tempfile

import numpy as np

from _common import export_telemetry, timed

from repro.io.seismogram import ReceiverArray
from repro.materials import HomogeneousMaterial
from repro.service import (
    CoalescingScheduler,
    Engine,
    ForwardRequest,
    ServicePolicy,
    SimulationSpec,
)
from repro.sources import idealized_strike_slip
from repro.sources.fault import SourceCollection

MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)


def make_spec(max_level: int) -> SimulationSpec:
    return SimulationSpec(
        material=MAT,
        L=8000.0,
        fmax=0.4,
        box_frac=(1, 1, 0.5),
        max_level=max_level,
    )


def bench_setup(spec: SimulationSpec, repeat: int) -> dict:
    """Cold vs warm vs disk-warm construction latency."""
    with tempfile.TemporaryDirectory() as disk:
        colds = []
        for _ in range(repeat):
            eng = Engine(disk_dir=disk)
            eng.cache.clear(disk=True)
            _, t = timed("service.cold_setup", eng.simulation, spec)
            colds.append(t)
        # warm: memory-tier hits on the live engine
        warms = []
        for _ in range(max(repeat * 5, 10)):
            _, t = timed("service.warm_setup", eng.simulation, spec)
            warms.append(t)
        # disk-warm: a fresh engine (new process stand-in) over the
        # persisted artifact tier
        disk_warms = []
        for _ in range(repeat):
            fresh = Engine(disk_dir=disk)
            _, t = timed("service.disk_setup", fresh.simulation, spec)
            disk_warms.append(t)
    cold = float(np.median(colds))
    warm = float(np.median(warms))
    disk_warm = float(np.median(disk_warms))
    return {
        "cold_s": cold,
        "warm_s": warm,
        "disk_warm_s": disk_warm,
        "warm_speedup": cold / max(warm, 1e-12),
        "disk_speedup": cold / max(disk_warm, 1e-12),
    }


def bench_coalescing(
    spec: SimulationSpec, nsteps: int, batches, repeat: int
) -> dict:
    """Per-scenario seconds: solo submits vs coalesced dispatch vs the
    direct ``run_batch`` ceiling."""
    engine = Engine()
    sim = engine.simulation(spec)  # warm once; every path below is hot
    t_end = (nsteps - 0.5) * sim.dt
    scenario = idealized_strike_slip(L=spec.L)
    rec = np.array([[4000.0, 4000.0, 0.0], [2000.0, 3000.0, 0.0]])

    rows = []
    for B in batches:
        requests = [
            ForwardRequest(spec, scenario, t_end, receivers=rec)
            for _ in range(B)
        ]

        def solo():
            for r in requests:
                engine.submit(
                    r.spec, r.scenario, r.t_end, receivers=r.receivers
                )

        def coalesced():
            with CoalescingScheduler(
                engine, max_batch=B, max_wait=5.0
            ) as sched:
                sched.map_wait(requests)

        def direct():
            forces = [
                SourceCollection(sim.mesh, sim.tree, scenario.sources)
                for _ in range(B)
            ]
            sim.solver.run_batch(
                forces, t_end, receivers=ReceiverArray(sim.mesh, rec)
            )

        solo()  # warm every code path + batch workspace
        coalesced()
        direct()
        t_solo = t_coal = t_direct = float("inf")
        for _ in range(repeat):
            _, t = timed("service.solo", solo)
            t_solo = min(t_solo, t)
            _, t = timed("service.coalesced", coalesced)
            t_coal = min(t_coal, t)
            _, t = timed("service.direct_batch", direct)
            t_direct = min(t_direct, t)
        rows.append(
            {
                "B": B,
                "solo_s_per_scenario": t_solo / B,
                "coalesced_s_per_scenario": t_coal / B,
                "direct_batch_s_per_scenario": t_direct / B,
                "speedup": t_solo / t_coal,
                "coalesced_vs_direct": t_coal / t_direct,
            }
        )
    return {
        "nelem": sim.mesh.nelem,
        "nnode": sim.mesh.nnode,
        "nsteps": nsteps,
        "rows": rows,
    }


def bench_policy(
    spec: SimulationSpec, nsteps: int, B: int, repeat: int
) -> dict:
    """Coalesced dispatch with the robustness policy disarmed vs armed.

    Armed means every admission-path guard is live: bounded queue
    depth, per-request deadline minting at submit plus the dispatch
    and demux-time recheck, and the circuit breaker's ``allow()``
    gate.  The overhead budget is <=2 % per scenario (the hard gate
    lives in ``check_overhead.py --policy-armed``; this records the
    measured ratio alongside the other service numbers).
    """
    engine = Engine()
    sim = engine.simulation(spec)
    t_end = (nsteps - 0.5) * sim.dt
    scenario = idealized_strike_slip(L=spec.L)
    rec = np.array([[4000.0, 4000.0, 0.0], [2000.0, 3000.0, 0.0]])
    armed_policy = ServicePolicy(max_queue_depth=1024, deadline=600.0)

    def drive(policy):
        # fresh requests each run: an armed policy mints a deadline
        # per submit, which is part of the cost being measured
        requests = [
            ForwardRequest(spec, scenario, t_end, receivers=rec)
            for _ in range(B)
        ]
        with CoalescingScheduler(
            engine, max_batch=B, max_wait=5.0, policy=policy
        ) as sched:
            sched.map_wait(requests)

    drive(None)  # warm every code path + batch workspace
    drive(armed_policy)
    t_off = t_on = float("inf")
    for _ in range(repeat):
        _, t = timed("service.policy_off", drive, None)
        t_off = min(t_off, t)
        _, t = timed("service.policy_on", drive, armed_policy)
        t_on = min(t_on, t)
    return {
        "B": B,
        "unarmed_s_per_scenario": t_off / B,
        "armed_s_per_scenario": t_on / B,
        "overhead": t_on / t_off - 1.0,
        "budget": 0.02,
    }


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", default="BENCH_service.json")
    ap.add_argument("--batches", default="1,4,16",
                    help="comma-separated batch widths")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing repetitions (best-of)")
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized problem, fewer steps")
    args = ap.parse_args(argv)

    batches = [int(b) for b in args.batches.split(",")]
    if args.smoke:
        max_level, nsteps, repeat = 4, 15, 1
    else:
        max_level, nsteps, repeat = 4, 60, args.repeat

    spec = make_spec(max_level)
    results = {
        "smoke": bool(args.smoke),
        "batches": batches,
        "setup": bench_setup(spec, repeat),
        "coalescing": bench_coalescing(spec, nsteps, batches, repeat),
        # best-of floor of 5: the armed-vs-unarmed delta is a few
        # microseconds per request, far below one-shot timing noise
        "policy": bench_policy(spec, nsteps, max(batches), max(repeat, 5)),
    }

    s = results["setup"]
    print(
        f"setup: cold {s['cold_s'] * 1e3:9.1f} ms   "
        f"warm {s['warm_s'] * 1e6:7.0f} us ({s['warm_speedup']:.0f}x)   "
        f"disk-warm {s['disk_warm_s'] * 1e3:7.1f} ms "
        f"({s['disk_speedup']:.1f}x)"
    )
    for row in results["coalescing"]["rows"]:
        print(
            f"  B={row['B']:>3}  "
            f"solo {row['solo_s_per_scenario'] * 1e3:8.2f} ms/scn  "
            f"coalesced {row['coalesced_s_per_scenario'] * 1e3:8.2f} ms/scn  "
            f"speedup {row['speedup']:.2f}x  "
            f"vs direct batch {row['coalesced_vs_direct']:.3f}"
        )

    p = results["policy"]
    print(
        f"  policy (B={p['B']}): unarmed "
        f"{p['unarmed_s_per_scenario'] * 1e3:8.2f} ms/scn  armed "
        f"{p['armed_s_per_scenario'] * 1e3:8.2f} ms/scn  overhead "
        f"{p['overhead'] * 100:+.2f}% (budget {p['budget'] * 100:.0f}%)"
    )

    with open(args.json, "w") as f:
        json.dump(results, f, indent=2)
    print(f"wrote {args.json}")
    export_telemetry("bench_service")
    return results


if __name__ == "__main__":
    main()
