"""Command-line interface.

Six subcommands mirror the library's main workflows:

* ``forward``  — basin earthquake simulation to a seismogram archive;
* ``mesh``     — etree mesh-database generation (construct/balance/
  transform) with the accounting Figure 2.1 reports;
* ``estimate`` — mesh-size / work projection for a target frequency
  (the paper's 8x-per-octave scaling law);
* ``profile``  — instrumented forward + multi-shot inversion runs
  (serial and on both distributed transports) that emit JSONL traces
  and Table-2.1-style :class:`~repro.telemetry.PerfReport` summaries;
* ``submit``   — spool a forward request for the simulation service;
* ``serve``    — drain the spool through a warm
  :class:`~repro.service.Engine` behind a
  :class:`~repro.service.CoalescingScheduler` (requests sharing one
  basin coalesce into one fused batched time loop).

Examples
--------
::

    python -m repro.cli estimate --L 80000 --depth-frac 0.5 --fmax 1.0 \
        --vs-min 100
    python -m repro.cli forward --L 16000 --fmax 0.5 --t-end 10 \
        --out /tmp/run.npz
    python -m repro.cli mesh --L 80000 --fmax 0.1 --workdir /tmp/meshdb
    python -m repro.cli profile --out-dir /tmp/profile --workers 2
    python -m repro.cli submit --spool /tmp/spool --L 8000 --fmax 0.4 \
        --t-end 2.0
    python -m repro.cli serve --spool /tmp/spool --out-dir /tmp/results
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np


def _add_material_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--L", type=float, required=True, help="box edge (m)")
    p.add_argument(
        "--depth-frac",
        type=float,
        default=0.5,
        help="meshed depth as a fraction of L (power-of-two denominator)",
    )
    p.add_argument("--vs-min", type=float, default=400.0,
                   help="minimum basin shear velocity (m/s)")
    p.add_argument("--fmax", type=float, required=True,
                   help="highest resolved frequency (Hz)")
    p.add_argument("--ppw", type=float, default=10.0,
                   help="grid points per wavelength")
    p.add_argument("--h-min", type=float, default=0.0,
                   help="element size floor (m) for scaled-down runs")


def _material(args):
    from repro.materials import SyntheticBasinModel

    return SyntheticBasinModel(
        L=args.L, depth=args.depth_frac * args.L, vs_min=args.vs_min
    )


def cmd_estimate(args) -> int:
    from repro.mesh import estimate_mesh_size

    est = estimate_mesh_size(
        _material(args),
        L=args.L,
        fmax=args.fmax,
        box_frac=(1, 1, args.depth_frac),
        points_per_wavelength=args.ppw,
        h_min=args.h_min,
    )
    print(json.dumps({k: float(v) for k, v in est.items()}, indent=2))
    return 0


def cmd_mesh(args) -> int:
    from repro.etree import generate_mesh_database

    result = generate_mesh_database(
        args.workdir,
        _material(args),
        L=args.L,
        fmax=args.fmax,
        points_per_wavelength=args.ppw,
        max_level=args.max_level,
        box_frac=(1, 1, args.depth_frac),
        h_min=args.h_min,
        blocks_per_axis=args.blocks,
    )
    print(f"elements     : {result.n_elements:,}")
    print(f"grid points  : {result.n_nodes:,}")
    print(f"hanging      : {result.n_hanging:,}")
    print(
        f"times (s)    : construct {result.construct_seconds:.2f} | "
        f"balance {result.balance_seconds:.2f} | "
        f"transform {result.transform_seconds:.2f}"
    )
    print(f"element db   : {result.element_path}")
    print(f"node db      : {result.node_path}")
    return 0


def cmd_forward(args) -> int:
    from repro.core import ForwardSimulation
    from repro.solver.checkpoint import CheckpointManager
    from repro.sources import idealized_northridge, idealized_strike_slip

    sim = ForwardSimulation(
        _material(args),
        L=args.L,
        fmax=args.fmax,
        box_frac=(1, 1, args.depth_frac),
        points_per_wavelength=args.ppw,
        max_level=args.max_level,
        h_min=args.h_min,
        damping_ratio=args.damping,
        lts=args.lts,
    )
    summary = sim.mesh_summary()
    print(f"mesh: {summary['elements']:,} elements, "
          f"{summary['grid_points']:,} points, dt = {summary['dt_s']:.4f} s")
    if args.lts:
        plan = sim.solver.lts_plan(max_rate=args.lts)
        hist = ", ".join(
            f"{r}x: {n}" for r, n in sorted(plan.histogram().items())
        )
        print(f"lts: clusters {hist}, theoretical speedup "
              f"{plan.theoretical_speedup():.2f}x")
    scenario = (
        idealized_northridge(L=args.L)
        if args.scenario == "northridge"
        else idealized_strike_slip(L=args.L)
    )
    if args.receivers:
        rec = np.array(json.loads(args.receivers), dtype=float)
    else:
        xs = np.linspace(0.2, 0.8, 5) * args.L
        rec = np.stack([xs, np.full_like(xs, 0.5 * args.L),
                        np.zeros_like(xs)], axis=1)
    ckpt = None
    if args.checkpoint_dir:
        ckpt = CheckpointManager(
            args.checkpoint_dir, args.checkpoint_every, prefix="forward"
        )
    result = sim.run(
        scenario,
        t_end=args.t_end,
        receivers=rec,
        checkpoint=ckpt,
        resume=args.resume,
    )
    seis = result.seismograms
    pgv = np.abs(seis.data).max(axis=(1, 2))
    for i, v in enumerate(pgv):
        print(f"  receiver {i}: PGV {v:.4f} m/s")
    if args.out:
        np.savez_compressed(
            args.out,
            data=seis.data,
            dt=seis.dt,
            kind=seis.kind,
            positions=seis.positions,
        )
        print(f"seismograms written to {args.out}")
    return 0


class _ProfilePointForce:
    """Picklable Gaussian point force for the profiled distributed runs
    (worker processes unpickle the force function)."""

    def __init__(self, node: int, nnode: int):
        self.node = node
        self.nnode = nnode

    def __call__(self, t, out):
        out.fill(0.0)
        out[self.node, 2] = 1e9 * np.exp(-(((t - 0.05) / 0.02) ** 2))
        return out


def _profile_forward(args, out_dir: str) -> list:
    """Serial elastic baseline + distributed runs on both transports,
    all under one trace.  Writes ``forward.trace.jsonl`` (including the
    per-rank timeline spans) and one PerfReport per transport.

    With ``--lts`` the material becomes a soft-basin-over-stiff-bedrock
    layering (a uniform one yields a single rate cluster), the serial
    solve runs twice — global dt, then clustered — and every report
    gains an LTS section with theoretical vs achieved speedup; the
    distributed runs execute clustered too, so the rank-pair traffic
    shows the reduced interface-handoff cadence.
    """
    from repro import telemetry
    from repro.materials import HomogeneousMaterial, LayeredMaterial
    from repro.mesh import extract_mesh, rcb_partition
    from repro.octree import build_adaptive_octree
    from repro.parallel import DistributedWaveSolver, ProcWorld, SimWorld
    from repro.solver import ElasticWaveSolver
    from repro.util.timing import Timer

    n = args.size
    lts = getattr(args, "lts", 0)
    if lts:
        # soft basin over stiff bedrock: the wave-speed contrast is
        # what spreads elements across step-rate clusters
        mat = LayeredMaterial(
            [875.0], vs=[200.0, 1600.0], vp=[400.0, 3200.0],
            rho=[2000.0, 2000.0],
        )
    else:
        mat = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=int(np.log2(n))
    )
    mesh = extract_mesh(tree, L=1000.0)
    force = _ProfilePointForce(mesh.nnode // 2, mesh.nnode)

    telemetry.enable()
    serial = ElasticWaveSolver(mesh, tree, mat, stacey_c1=False)
    dt = serial.dt
    t_end = (args.steps - 0.5) * dt
    with Timer() as t_serial:
        serial.run(force, t_end)
    print(f"forward: {mesh.nelem} elements, {args.steps} steps, "
          f"serial {t_serial.seconds:.3f}s")

    lts_info = None
    if lts:
        with Timer() as t_lts:
            serial.run(force, t_end, lts=lts)
        plan = serial.lts_plan(max_rate=lts)
        lts_info = plan.as_dict()
        lts_info["achieved_speedup"] = (
            t_serial.seconds / t_lts.seconds if t_lts.seconds > 0 else None
        )
        print(f"forward lts: {t_lts.seconds:.3f}s "
              f"(theoretical {plan.theoretical_speedup():.2f}x, "
              f"achieved {t_serial.seconds / t_lts.seconds:.2f}x)")

    nw = args.workers
    parts = (
        rcb_partition(mesh.elem_centers, nw)
        if nw > 1
        else np.zeros(mesh.nelem, dtype=np.int64)
    )
    runs = []
    solver = DistributedWaveSolver(
        mesh, mat, parts, SimWorld(nw), dt=dt, lts=lts
    )
    with Timer() as t_run:
        solver.run(force, t_end)
    runs.append(("sim", solver.world, solver.last_timeline, t_run.seconds))
    with ProcWorld(nw) as world:
        solver = DistributedWaveSolver(
            mesh, mat, parts, world, dt=dt, lts=lts
        )
        with Timer() as t_run:
            solver.run(force, t_end)
        runs.append(("proc", world, solver.last_timeline, t_run.seconds))

    reports = []
    extra = []
    for name, world, timeline, seconds in runs:
        report = telemetry.PerfReport.collect(
            tracer=telemetry.current_tracer(),
            world=world,
            timeline=timeline,
            flops=serial.flops,
            metrics=telemetry.metrics(),
            baseline_seconds=t_serial.seconds,
            parallel_seconds=seconds,
            nranks=nw,
            lts=lts_info,
            title=f"forward elastic, {name} transport, P={nw}",
        )
        reports.append(report)
        if timeline is not None:
            for rec in timeline.span_records():
                extra.append({**rec, "transport": name})
        base = os.path.join(out_dir, f"forward_{name}")
        with open(base + ".perfreport.txt", "w") as f:
            f.write(report.as_text() + "\n")
        with open(base + ".perfreport.json", "w") as f:
            json.dump(report.as_dict(), f, indent=2)
    nlines = telemetry.dump_jsonl(
        os.path.join(out_dir, "forward.trace.jsonl"), extra_records=extra
    )
    print(f"forward trace: {nlines} records -> "
          f"{os.path.join(out_dir, 'forward.trace.jsonl')}")
    return reports


def _profile_inverse(args, out_dir: str):
    """Small multi-shot scalar inversion under a fresh trace; writes
    ``inverse.trace.jsonl`` and its PerfReport."""
    from repro import telemetry
    from repro.inverse import (
        FaultLineSource2D,
        MaterialGrid,
        ScalarWaveInverseProblem,
        Shot,
    )
    from repro.inverse.gauss_newton import gauss_newton_cg
    from repro.solver import RegularGridScalarWave
    from repro.solver.checkpoint import CheckpointManager
    from repro.util.timing import Timer

    telemetry.enable(fresh=True)
    nx, nz = 16, 8
    h = 100.0
    solver = RegularGridScalarWave((nx, nz), h, rho=1000.0)
    grid = MaterialGrid((4, 2), (nx * h, nz * h))
    m_true = grid.sample(lambda p: 2.0e9 + 1.5e9 * (p[:, 1] > 400.0))
    mu_e = grid.to_elements(solver) @ m_true
    dt = solver.stable_dt(np.full(solver.nelem, m_true.max()))
    nsteps = args.steps * 4
    shots = []
    for ix, hj in [(nx // 2, 4), (nx // 4, 3)]:
        fault = FaultLineSource2D(solver, ix=ix, jz=range(2, 6))
        params = fault.hypocentral_params(
            hypo_j=hj, rupture_velocity=2000.0, u0=1.0, t0=0.3
        )
        u = solver.march(
            mu_e, fault.forcing(mu_e, params, dt), nsteps, dt, store=True
        )
        rec = solver.surface_nodes()[::2]
        shots.append(Shot(receivers=rec, data=u[:, rec], fault=fault,
                          source_params=params))
    prob = ScalarWaveInverseProblem.multi_shot(solver, grid, shots, dt, nsteps)
    ckpt = CheckpointManager(
        os.path.join(out_dir, "gn_ckpt"), interval=1, prefix="gn"
    )
    with Timer() as t_inv:
        res = gauss_newton_cg(
            prob,
            np.full(grid.n, 2.5e9),
            max_newton=3,
            cg_maxiter=8,
            checkpoint=ckpt,
            resume=args.resume,
        )
    print(f"inversion: {len(shots)} shots, {res.newton_iterations} Newton / "
          f"{res.total_cg_iterations} CG iterations, "
          f"{prob.n_wave_solves} wave solves, {t_inv.seconds:.3f}s")
    report = telemetry.PerfReport.collect(
        tracer=telemetry.current_tracer(),
        metrics=telemetry.metrics(),
        title=f"multi-shot inversion ({len(shots)} shots)",
    )
    base = os.path.join(out_dir, "inverse")
    with open(base + ".perfreport.txt", "w") as f:
        f.write(report.as_text() + "\n")
    with open(base + ".perfreport.json", "w") as f:
        json.dump(report.as_dict(), f, indent=2)
    nlines = telemetry.dump_jsonl(base + ".trace.jsonl")
    print(f"inverse trace: {nlines} records -> {base}.trace.jsonl")
    return report


def cmd_submit(args) -> int:
    """Spool one forward request for a (possibly already running)
    ``repro serve`` process (:meth:`repro.service.spool.Spool.submit`:
    atomic, so a concurrently draining server never sees a torn file,
    and exclusive, so concurrent submitters never share an id)."""
    from repro.service import Spool
    from repro.service.server import spec_from_dict

    # plain floats and ints: the JSON the service rebuilds a
    # SimulationSpec from
    spec = {
        "L": float(args.L),
        "depth_frac": float(args.depth_frac),
        "vs_min": float(args.vs_min),
        "fmax": float(args.fmax),
        "ppw": float(args.ppw),
        "h_min": float(args.h_min),
        "max_level": int(args.max_level),
    }
    if args.receivers:
        receivers = json.loads(args.receivers)
    else:
        xs = np.linspace(0.2, 0.8, 5) * args.L
        receivers = np.stack(
            [xs, np.full_like(xs, 0.5 * args.L), np.zeros_like(xs)], axis=1
        ).tolist()
    spool = Spool(args.spool)
    req_id = spool.submit({
        "spec": spec,
        "scenario": args.scenario,
        "t_end": float(args.t_end),
        "receivers": receivers,
    })
    key = spec_from_dict(spec).key
    print(f"spooled {spool.path(req_id)}  (artifact key {key[:12]}…)")
    return 0


def _serve_status_payload(spool, engine, scheduler, tally):
    """The live-state dict ``repro serve`` publishes for ``repro top``:
    counts, unclaimed spool files, cache tiers, and latency
    quantiles."""
    from repro import telemetry

    reg = telemetry.metrics()
    latency = {}
    for name in reg.names():
        if name.startswith("service.latency."):
            h = reg[name]
            if getattr(h, "n", 0):
                latency[name[len("service.latency."):]] = {
                    "n": h.n,
                    "p50": h.quantile(0.50),
                    "p95": h.quantile(0.95),
                    "p99": h.quantile(0.99),
                    "max": h.max,
                }
    return {
        "served": tally.served,
        "failed": tally.failed,
        "quarantined": tally.quarantined,
        "pending": len(spool.pending()),
        "scheduler": scheduler.stats(),
        "cache": engine.cache.stats(),
        "drain": tally.drain,
        "latency": latency,
    }


def cmd_serve(args) -> int:
    """Drain the spool through a warm engine, crash-safely
    (:func:`repro.service.server.serve` is the loop,
    :mod:`repro.service.spool` the directory protocol).

    Each pass claims every pending ``req-*.json`` into
    ``<spool>/inflight/`` and hands the whole pass to the coalescing
    scheduler, which dispatches it at once: requests naming the same
    basin, horizon and record ride one fused batch (at most
    ``--max-batch`` wide), and what arrives while they solve is the
    next pass — the spool is the batching queue.  Each result lands as
    one ``.npz`` before its spool file retires to ``<spool>/done``; a
    restarted server replays ``inflight/``; a request that fails
    ``--max-attempts`` times (or cannot be parsed) moves to
    ``<spool>/quarantine/`` with a failure report.  With ``--watch``
    the server polls for new requests until interrupted; the default
    is one drain pass (empty spool = no-op).

    ``--max-queue-depth`` sheds the part of a pass past that depth (it
    is retried on the next attempt), ``--deadline`` expires queued
    requests (:class:`~repro.service.policy.ServicePolicy`).
    ``--status-file`` publishes live state for ``repro top``,
    ``--prometheus``/``--metrics-jsonl`` export the metric registry,
    ``--trace-out`` dumps the request-stitched span trace; any of
    these turns telemetry on for the process.
    """
    from repro import telemetry
    from repro.resilience.faults import FaultPlan
    from repro.service import (
        CoalescingScheduler, Engine, ServeStats, ServicePolicy, Spool, serve,
    )

    exporting = bool(
        args.status_file or args.prometheus
        or args.metrics_jsonl or args.trace_out
    )
    if exporting and not telemetry.enabled():
        telemetry.enable()
    status = (
        telemetry.StatusFile(args.status_file)
        if args.status_file else None
    )
    jsonl = (
        telemetry.MetricsJsonlExporter(args.metrics_jsonl)
        if args.metrics_jsonl else None
    )

    policy = ServicePolicy(
        max_queue_depth=args.max_queue_depth,
        deadline=args.deadline if args.deadline > 0 else None,
        max_attempts=args.max_attempts,
    )
    engine = Engine(
        capacity=args.capacity, disk_dir=args.cache_dir,
        faults=FaultPlan.from_env(),
    )
    scheduler = CoalescingScheduler(
        engine, max_batch=args.max_batch, policy=policy
    )
    spool = Spool(args.spool)
    tally = ServeStats()

    def publish():
        if status is not None:
            status.write(
                _serve_status_payload(spool, engine, scheduler, tally)
            )
        if jsonl is not None:
            jsonl.export()
        if args.prometheus:
            telemetry.write_prometheus(args.prometheus)

    try:
        serve(
            spool, args.out_dir, scheduler, watch=args.watch,
            poll=args.poll, publish=publish, stats=tally,
        )
    finally:
        scheduler.close()
        engine.close()
        publish()

    stats = engine.stats()
    sched = scheduler.stats()
    print(
        f"served {tally.served} request(s) ({tally.failed} failed) in "
        f"{sched['batches']} batch(es), mean width "
        f"{sched['mean_batch']:.2f}, max {sched['max_batch_observed']}"
    )
    if tally.quarantined:
        print(
            f"quarantine: {tally.quarantined} request(s) -> "
            f"{spool.quarantine_dir}"
        )
    print(
        f"artifact cache: {stats['hits']} hits / {stats['misses']} misses "
        f"({stats['entries']} live, {stats['disk_hits']} from disk)"
    )
    if args.trace_out and telemetry.enabled():
        extra = [
            {"type": "request_trace", "request": rid, "trace": tid}
            for rid, tid in tally.traces
        ]
        n = telemetry.dump_jsonl(args.trace_out, extra_records=extra)
        print(f"trace: {n} records -> {args.trace_out}")
    if args.report:
        service = {**stats, **sched, "quarantined": tally.quarantined}
        if tally.drain is not None:
            service["drain"] = tally.drain
        report = telemetry.PerfReport.collect(
            metrics=telemetry.metrics(),
            service=service,
            title="simulation service drain",
        )
        print()
        print(report.as_text())
    return 1 if tally.failed else 0


def cmd_top(args) -> int:
    """Live service view: renders the status file ``repro serve
    --status-file`` publishes.  One shot by default; ``--watch``
    refreshes every ``--poll`` seconds until interrupted."""
    import time as _time

    from repro import telemetry

    status = telemetry.StatusFile(args.status_file)

    def render() -> bool:
        snap = status.read()
        if snap is None:
            print(f"no status at {args.status_file} (is serve running "
                  "with --status-file?)")
            return False
        age = _time.time() - snap.get("ts", 0.0)
        lines = [
            f"repro serve  pid {snap.get('pid', '?')}  "
            f"(status age {age:.1f}s)",
            f"  served {snap.get('served', 0)} "
            f"({snap.get('failed', 0)} failed)",
        ]
        sched = snap.get("scheduler") or {}
        rb = {
            k: sched.get(k, 0)
            for k in ("shed", "deadline_expired", "poisoned")
        }
        rb["quarantined"] = snap.get("quarantined", 0)
        if any(rb.values()):
            lines.append(
                f"  robustness: shed {rb['shed']}, expired "
                f"{rb['deadline_expired']}, poisoned {rb['poisoned']}, "
                f"quarantined {rb['quarantined']}"
            )
        lines.append(f"  queue: {snap.get('pending', 0)} unclaimed")
        c = snap.get("cache") or {}
        lines.append(
            f"  cache: {c.get('entries', 0)}/{c.get('capacity', 0)} "
            f"entries, {c.get('hits', 0)} hits / "
            f"{c.get('misses', 0)} misses "
            f"({100.0 * c.get('hit_rate', 0.0):.0f}%), "
            f"{c.get('disk_hits', 0)} from disk"
        )
        d = snap.get("drain")
        if d:
            dh, dm = d.get("hits", 0), d.get("misses", 0)
            dt = dh + dm
            lines.append(
                f"  last drain: {dh}/{dt} hits "
                f"({100.0 * d.get('hit_rate', 0.0):.0f}%)"
            )
        lat = snap.get("latency") or {}
        if lat:
            lines.append(
                f"  {'latency':<10} {'n':>6} {'p50':>9} {'p95':>9} "
                f"{'p99':>9}"
            )
            for stage, h in sorted(lat.items()):
                lines.append(
                    f"  {stage:<10} {h['n']:>6} "
                    f"{h['p50'] * 1e3:>7.1f}ms {h['p95'] * 1e3:>7.1f}ms "
                    f"{h['p99'] * 1e3:>7.1f}ms"
                )
        print("\n".join(lines))
        return True

    if not args.watch:
        return 0 if render() else 1
    try:
        while True:
            print("\x1b[2J\x1b[H", end="")
            render()
            _time.sleep(args.poll)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_profile(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    reports = []
    if args.scenario in ("forward", "all"):
        reports.extend(_profile_forward(args, args.out_dir))
    if args.scenario in ("inverse", "all"):
        reports.append(_profile_inverse(args, args.out_dir))
    for report in reports:
        print()
        print(report.as_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Forward/inverse earthquake modeling (SC2003 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("estimate", help="mesh-size/work projection")
    _add_material_args(pe)
    pe.set_defaults(func=cmd_estimate)

    pm = sub.add_parser("mesh", help="generate the etree mesh database")
    _add_material_args(pm)
    pm.add_argument("--workdir", required=True)
    pm.add_argument("--max-level", type=int, default=7)
    pm.add_argument("--blocks", type=int, default=4)
    pm.set_defaults(func=cmd_mesh)

    pf = sub.add_parser("forward", help="run a forward simulation")
    _add_material_args(pf)
    pf.add_argument("--max-level", type=int, default=6)
    pf.add_argument("--t-end", type=float, required=True)
    pf.add_argument(
        "--scenario", choices=("northridge", "strike-slip"),
        default="strike-slip",
    )
    pf.add_argument("--damping", type=float, default=0.0)
    pf.add_argument(
        "--receivers",
        help='JSON list of [x, y, z] positions (m), e.g. "[[100,100,0]]"',
    )
    pf.add_argument("--out", help="write seismograms to this .npz file")
    pf.add_argument(
        "--checkpoint-dir",
        help="directory for durable run checkpoints (crash-safe restart)",
    )
    pf.add_argument(
        "--checkpoint-every", type=int, default=0,
        help="snapshot every N steps (0 = only on --resume loads)",
    )
    pf.add_argument(
        "--resume", action="store_true",
        help="restart from the latest valid checkpoint in --checkpoint-dir",
    )
    pf.add_argument(
        "--lts", type=int, nargs="?", const=32, default=0,
        metavar="MAX_RATE",
        help="clustered local time stepping (optional coarsest-to-"
             "finest step-rate cap, default 32 when given bare)",
    )
    pf.set_defaults(func=cmd_forward)

    pp = sub.add_parser(
        "profile",
        help="instrumented runs emitting JSONL traces and PerfReports",
    )
    pp.add_argument("--out-dir", default="profile_out",
                    help="directory for traces and reports")
    pp.add_argument("--size", type=int, default=8,
                    help="forward mesh is size^3 elements (power of two)")
    pp.add_argument("--steps", type=int, default=20,
                    help="forward time steps (inversion uses 4x)")
    pp.add_argument("--workers", type=int, default=2,
                    help="distributed worker count (both transports)")
    pp.add_argument(
        "--scenario", choices=("forward", "inverse", "all"), default="all"
    )
    pp.add_argument(
        "--resume", action="store_true",
        help="resume the inversion from its Gauss-Newton checkpoint",
    )
    pp.add_argument(
        "--lts", type=int, nargs="?", const=32, default=0,
        metavar="MAX_RATE",
        help="profile the forward runs with clustered local time "
             "stepping on a layered (soft-over-stiff) material, "
             "reporting theoretical vs achieved speedup",
    )
    pp.set_defaults(func=cmd_profile)

    ps = sub.add_parser(
        "submit",
        help="spool a forward request for the simulation service",
    )
    _add_material_args(ps)
    ps.add_argument("--max-level", type=int, default=6)
    ps.add_argument("--t-end", type=float, required=True)
    ps.add_argument(
        "--scenario", choices=("northridge", "strike-slip"),
        default="strike-slip",
    )
    ps.add_argument(
        "--receivers",
        help='JSON list of [x, y, z] positions (m), e.g. "[[100,100,0]]"',
    )
    ps.add_argument("--spool", required=True,
                    help="spool directory shared with `repro serve`")
    ps.set_defaults(func=cmd_submit)

    pv = sub.add_parser(
        "serve",
        help="drain spooled requests through the warm simulation service",
    )
    pv.add_argument("--spool", required=True,
                    help="spool directory `repro submit` writes into")
    pv.add_argument("--out-dir", default="service_out",
                    help="directory for per-request seismogram .npz files")
    pv.add_argument("--cache-dir",
                    help="on-disk artifact tier (warm restarts)")
    pv.add_argument("--capacity", type=int, default=4,
                    help="memory-tier LRU slots for constructed basins")
    pv.add_argument("--max-batch", type=int, default=16,
                    help="coalescing width cap (B of the fused loop)")
    pv.add_argument("--max-wait", type=float, default=0.05,
                    help="ignored: the scheduler has no batching window "
                         "and a claimed pass dispatches at once; still "
                         "parsed because the serve_open benchmark "
                         "passes it")
    pv.add_argument("--watch", action="store_true",
                    help="keep polling the spool instead of one drain pass")
    pv.add_argument("--poll", type=float, default=0.5,
                    help="idle poll interval with --watch (s)")
    pv.add_argument("--report", action="store_true",
                    help="print the PerfReport service section after draining")
    pv.add_argument("--max-queue-depth", type=int, default=0,
                    help="shed the requests of a pass past this "
                         "depth; they retry next attempt (0 = unbounded)")
    pv.add_argument("--deadline", type=float, default=0.0,
                    help="per-request deadline in seconds from "
                         "admission (0 = none)")
    pv.add_argument("--max-attempts", type=int, default=3,
                    help="drain attempts before a failing request is "
                         "quarantined")
    pv.add_argument("--status-file",
                    help="publish live status JSON here (read by "
                         "`repro top`); enables telemetry")
    pv.add_argument("--prometheus",
                    help="write Prometheus text-format metrics to this "
                         "path after each drain; enables telemetry")
    pv.add_argument("--metrics-jsonl",
                    help="append a metrics snapshot (JSONL) per drain; "
                         "enables telemetry")
    pv.add_argument("--trace-out",
                    help="dump the request-stitched span trace (JSONL) "
                         "on exit; enables telemetry")
    pv.set_defaults(func=cmd_serve)

    pt = sub.add_parser(
        "top",
        help="live view of a running `repro serve --status-file` process",
    )
    pt.add_argument("--status-file", required=True,
                    help="status file the serve process publishes")
    pt.add_argument("--watch", action="store_true",
                    help="refresh continuously instead of one shot")
    pt.add_argument("--poll", type=float, default=1.0,
                    help="refresh interval with --watch (s)")
    pt.set_defaults(func=cmd_top)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
