"""The telemetry subsystem's contracts.

Four promises are pinned here: (1) spans nest, aggregate, and export
faithfully; (2) disabled telemetry is free — zero allocations on the
hot path and bitwise-identical solver trajectories; (3) the per-rank
timelines and per-peer traffic of the distributed solver agree across
the simulated and process transports; (4) the PerfReport renders the
Table-2.1 quantities deterministically (golden text).
"""

import json
import tracemalloc

import numpy as np
import pytest

from repro import telemetry
from repro.fem.assembly import ElasticOperator
from repro.materials import HomogeneousMaterial
from repro.mesh import extract_mesh, rcb_partition
from repro.octree import build_adaptive_octree
from repro.parallel import DistributedWaveSolver, ProcWorld, SimWorld
from repro.parallel.simcomm import TrafficStats
from repro.solver import ElasticWaveSolver, RegularGridScalarWave
from repro.telemetry import MergedTimeline, MetricsRegistry, PerfReport, RankTimeline
from repro.telemetry.timeline import PHASES

MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
L = 1000.0


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled and empty."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def make_mesh(n=4, max_level=2):
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=max_level
    )
    return tree, extract_mesh(tree, L=L)


class PointForce:
    """Picklable point force (ProcWorld workers unpickle it)."""

    def __init__(self, node, nnode):
        self.node = node
        self.nnode = nnode

    def __call__(self, t, out=None):
        b = np.zeros((self.nnode, 3)) if out is None else out
        b.fill(0.0)
        b[self.node, 2] = 1e9 * np.exp(-(((t - 0.05) / 0.02) ** 2))
        return b


# ------------------------------------------------------------------ spans


class TestSpans:
    def test_nesting_aggregation_and_order(self):
        telemetry.enable()
        for _ in range(3):
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
                with telemetry.span("inner"):
                    pass
        with telemetry.span("tail"):
            pass
        aggs = telemetry.current_tracer().aggregates()
        paths = [a["path"] for a in aggs]
        # depth-first, parents before children, insertion-ordered
        assert paths == ["outer", "outer/inner", "tail"]
        by_path = {a["path"]: a for a in aggs}
        assert by_path["outer"]["count"] == 3
        assert by_path["outer/inner"]["count"] == 6
        assert by_path["outer/inner"]["depth"] == 1
        assert by_path["outer"]["seconds"] >= by_path["outer/inner"]["seconds"]

    def test_same_name_different_parent_is_distinct(self):
        telemetry.enable()
        with telemetry.span("a"):
            with telemetry.span("work"):
                pass
        with telemetry.span("b"):
            with telemetry.span("work"):
                pass
        paths = [a["path"] for a in telemetry.current_tracer().aggregates()]
        assert "a/work" in paths and "b/work" in paths

    def test_counters_attach_and_accumulate(self):
        telemetry.enable()
        for _ in range(2):
            with telemetry.span("phase") as s:
                s.add("flops", 100)
                s.add("flops", 50)
        (agg,) = telemetry.current_tracer().aggregates()
        assert agg["counters"] == {"flops": 300}

    def test_annotate_creates_path(self):
        telemetry.enable()
        telemetry.annotate(("x", "y"), "bytes", 7)
        by_path = {
            a["path"]: a for a in telemetry.current_tracer().aggregates()
        }
        assert by_path["x/y"]["counters"] == {"bytes": 7}
        assert by_path["x/y"]["count"] == 0

    def test_disabled_returns_shared_null_span(self):
        assert not telemetry.enabled()
        s1 = telemetry.span("anything")
        s2 = telemetry.span("else")
        assert s1 is s2
        with s1 as s:
            assert s.add("flops", 1) is s
        telemetry.add("flops", 1)  # no-op, must not raise

    def test_disabled_spans_allocate_nothing(self):
        assert not telemetry.enabled()

        def hot_loop(n):
            for _ in range(n):
                with telemetry.span("stiffness") as s:
                    s.add("flops", 1000)
                telemetry.add("extra", 1)
                telemetry.sample("residual", 1.0)

        hot_loop(10)  # warm up any lazy interning
        tracemalloc.start()
        hot_loop(2000)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 1024, f"disabled telemetry allocated {peak} bytes"

    def test_event_stream_is_bounded(self):
        telemetry.enable(max_events=4)
        for _ in range(10):
            with telemetry.span("s"):
                pass
        tr = telemetry.current_tracer()
        assert len(tr.events) == 4
        assert tr.dropped_events == 6
        # the aggregate keeps counting past the event cap
        assert tr.aggregates()[0]["count"] == 10

    def test_jsonl_dump(self, tmp_path):
        telemetry.enable()
        with telemetry.span("run") as s:
            s.add("flops", 42)
            with telemetry.span("step"):
                pass
        telemetry.sample("res", 0.5, step=3)
        path = tmp_path / "trace.jsonl"
        n = telemetry.dump_jsonl(
            str(path), extra_records=[{"type": "rank_span", "rank": 0}]
        )
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == n
        kinds = [r["type"] for r in records]
        assert kinds[0] == "meta"
        assert kinds.count("span") == 2
        assert kinds.count("event") == 2
        assert "rank_span" in kinds and "metric" in kinds
        spans = {r["path"]: r for r in records if r["type"] == "span"}
        assert spans["run"]["counters"] == {"flops": 42}
        assert spans["run/step"]["depth"] == 1
        metric = next(r for r in records if r["type"] == "metric")
        assert metric["name"] == "res"
        assert metric["steps"] == [3] and metric["values"] == [0.5]

    def test_dump_returns_zero_when_disabled(self, tmp_path):
        assert telemetry.dump_jsonl(str(tmp_path / "x.jsonl")) == 0


# ---------------------------------------------------------------- metrics


class TestMetrics:
    def test_registry_find_or_create_and_type_clash(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.add(3)
        assert reg.counter("n") is c and c.value == 3
        with pytest.raises(TypeError):
            reg.gauge("n")

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        g = reg.gauge("cfl")
        g.set(2.0)
        g.set(0.5)
        assert (g.value, g.min, g.max, g.n) == (0.5, 0.5, 2.0, 2)
        h = reg.histogram("dt")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.mean == 2.0 and h.n == 3
        assert h.std == pytest.approx(np.std([1.0, 2.0, 3.0]))

    def test_series_auto_and_explicit_steps(self):
        reg = MetricsRegistry()
        s = reg.series("r")
        s.append(1.0)
        s.append(2.0, step=10)
        assert s.steps == [0, 10] and s.values == [1.0, 2.0]

    def test_sample_and_gauge_gated_on_enabled(self):
        telemetry.sample("x", 1.0)
        telemetry.gauge("g", 1.0)
        assert "x" not in telemetry.metrics()
        telemetry.enable()
        telemetry.sample("x", 1.0)
        telemetry.gauge("g", 2.0)
        assert telemetry.metrics()["x"].values == [1.0]
        assert telemetry.metrics()["g"].value == 2.0

    def test_sample_alloc_requires_tracemalloc(self):
        telemetry.enable()
        telemetry.sample_alloc()
        assert "alloc.peak_bytes" not in telemetry.metrics()
        tracemalloc.start()
        try:
            telemetry.sample_alloc()
        finally:
            tracemalloc.stop()
        assert len(telemetry.metrics()["alloc.peak_bytes"]) == 1


# ------------------------------------------- trajectories on/off identity


class TestTrajectoryIdentity:
    def test_elastic_bitwise_identical_on_off(self):
        tree, mesh = make_mesh()
        force = PointForce(mesh.nnode // 2, mesh.nnode)
        t_end = 8.5 * ElasticWaveSolver(mesh, tree, MAT).dt

        def trajectory():
            solver = ElasticWaveSolver(mesh, tree, MAT)
            states = []
            solver.run(
                force, t_end, callback=lambda k, t, u: states.append(u.copy())
            )
            return states

        off = trajectory()
        telemetry.enable()
        on = trajectory()
        assert len(on) == len(off) > 0
        for k, (a, b) in enumerate(zip(on, off)):
            assert np.array_equal(a, b), f"step {k}"
        # and the trace actually saw the run
        paths = [a["path"] for a in telemetry.current_tracer().aggregates()]
        assert "elastic.run" in paths
        assert "elastic.run/stiffness" in paths

    def test_scalar_march_bitwise_identical_on_off(self):
        solver = RegularGridScalarWave((8, 4), 100.0, rho=1000.0)
        mu = np.full(solver.nelem, 2e9)
        dt = solver.stable_dt(mu)
        f = np.zeros(solver.nnode)
        f[solver.nnode // 2] = 1.0

        def forcing(k):
            return f if k < 3 else None

        u_off = solver.march(mu, forcing, 20, dt, store=True)
        telemetry.enable()
        u_on = solver.march(mu, forcing, 20, dt, store=True)
        assert np.array_equal(u_on, u_off)


# ------------------------------------------------------- per-peer traffic


class TestPeerTraffic:
    def test_record_send_updates_scalars_and_peers(self):
        st = TrafficStats()
        st.record_send(0, 1, 100)
        st.record_send(0, 1, 50)
        st.record_send(0, 2, 10)
        assert st.messages_sent == 3 and st.bytes_sent == 160
        assert st.peers == {(0, 1): (2, 150), (0, 2): (1, 10)}
        assert st.as_tuple() == (3, 160, 0)

    def test_copy_and_merge_carry_peers(self):
        a = TrafficStats()
        a.record_send(0, 1, 5)
        b = a.copy()
        b.record_send(0, 1, 5)
        assert a.peers == {(0, 1): (1, 5)}
        a.merge(b)
        assert a.peers == {(0, 1): (3, 15)}

    def test_peers_payload_roundtrip(self):
        a = TrafficStats()
        a.record_send(1, 0, 8)
        a.record_send(1, 2, 16)
        b = TrafficStats()
        b.merge_peers_payload(a.peers_payload())
        assert b.peers == a.peers

    def test_transports_agree_on_peer_matrix(self):
        tree, mesh = make_mesh()
        force = PointForce(mesh.nnode // 2, mesh.nnode)
        parts = rcb_partition(mesh.elem_centers, 2)

        def run(world):
            solver = DistributedWaveSolver(mesh, MAT, parts, world, dt=1e-4)
            solver.run(force, 5.5e-4)
            return [dict(st.peers) for st in world.stats]

        sim_peers = run(SimWorld(2))
        with ProcWorld(2) as world:
            proc_peers = run(world)
        assert sim_peers == proc_peers
        # a 2-rank run must have traffic in both directions
        flat = {}
        for p in sim_peers:
            for k, (m, b) in p.items():
                pm, pb = flat.get(k, (0, 0))
                flat[k] = (pm + m, pb + b)
        assert set(flat) == {(0, 1), (1, 0)}


# ------------------------------------------------------- rank timelines


class TestTimelines:
    def test_rank_timeline_views(self):
        tl = RankTimeline(0, 2)
        tl.record(0, 0, 1.0)  # interface
        tl.record(0, 2, 2.0)  # interior
        tl.record(1, 1, 0.5)  # send
        tl.record(1, 4, 1.0)  # update
        assert tl.compute_seconds == 4.0
        assert tl.comm_seconds == 0.5
        assert tl.interface_fraction() == pytest.approx(1.0 / 3.0)
        rt = RankTimeline.from_payload(tl.to_payload())
        assert np.array_equal(rt.durations, tl.durations)
        recs = tl.span_records()
        assert len(recs) == 2 * len(PHASES)
        assert recs[0]["phase"] == "interface"

    def test_merged_imbalance_and_overlap(self):
        a = RankTimeline(0, 1)
        b = RankTimeline(1, 1)
        a.record(0, 2, 3.0)  # interior
        a.record(0, 3, 1.0)  # recv
        b.record(0, 2, 1.0)
        b.record(0, 3, 1.0)
        merged = MergedTimeline([b, a])
        assert merged.ranks[0].rank == 0  # sorted
        # compute: 3 vs 1 -> (3-1)/2
        assert merged.step_imbalance()[0] == pytest.approx(1.0)
        # rank0 hides min(3,1)=1 of 1s comm; rank1 min(1,1)=1 of 1 -> 1.0
        assert merged.overlap_ratio() == pytest.approx(1.0)
        summary = merged.summary()
        assert summary["nranks"] == 2 and summary["phases"] == list(PHASES)

    def test_nsteps_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MergedTimeline([RankTimeline(0, 2), RankTimeline(1, 3)])

    def test_solver_timelines_on_both_transports(self):
        tree, mesh = make_mesh()
        force = PointForce(mesh.nnode // 2, mesh.nnode)
        parts = rcb_partition(mesh.elem_centers, 2)
        nsteps = 6
        dt = 1e-4
        t_end = (nsteps - 0.5) * dt

        def run(world):
            solver = DistributedWaveSolver(mesh, MAT, parts, world, dt=dt)
            u = solver.run(force, t_end)
            return u, solver.last_timeline

        # disabled -> no timeline is recorded
        _, tl = run(SimWorld(2))
        assert tl is None

        telemetry.enable()
        u_sim, tl_sim = run(SimWorld(2))
        with ProcWorld(2) as world:
            u_proc, tl_proc = run(world)
        assert np.array_equal(u_sim, u_proc)
        for tl in (tl_sim, tl_proc):
            assert isinstance(tl, MergedTimeline)
            assert tl.nranks == 2
            assert tl.nsteps == nsteps
            for r in tl.ranks:
                assert r.durations.shape == (nsteps, len(PHASES))
                assert np.all(np.isfinite(r.durations))
                assert np.all(r.durations >= 0)
                assert r.compute_seconds > 0
            s = tl.summary()
            assert len(s["per_rank"]) == 2
            assert 0.0 <= s["overlap_ratio"] <= 1.0
        # the two transports ran the same schedule: summaries have the
        # same structure (identical keys), wall times of course differ
        assert set(tl_sim.summary()) == set(tl_proc.summary())


# ---------------------------------------------------------- flop formulas


class TestFlopAccounting:
    def test_matmat_is_width_times_matvec(self):
        _, mesh = make_mesh()
        lam = np.full(mesh.nelem, 2.0)
        mu = np.full(mesh.nelem, 1.0)
        op = ElasticOperator(mesh.conn, mesh.elem_h, lam, mu, mesh.nnode)
        assert op.flops_per_matvec > 0
        for w in (1, 3, 8):
            assert op.flops_per_matmat(w) == w * op.flops_per_matvec

    def test_run_batch_flops_match_singles(self):
        tree, mesh = make_mesh()
        forces = [PointForce(1, mesh.nnode), PointForce(2, mesh.nnode)]
        t_end = 5.5e-4

        single = ElasticWaveSolver(mesh, tree, MAT, dt=1e-4)
        for fc in forces:
            single.run(fc, t_end)
        batched = ElasticWaveSolver(mesh, tree, MAT, dt=1e-4)
        batched.run_batch(forces, t_end)
        assert batched.flops.counts == single.flops.counts


# ------------------------------------------------------------- PerfReport


class TestPerfReport:
    def _fixed_report(self):
        return PerfReport(
            phases=[
                {"path": "elastic.run", "name": "elastic.run", "depth": 0,
                 "seconds": 2.0, "count": 1, "flops": None},
                {"path": "elastic.run/stiffness", "name": "stiffness",
                 "depth": 1, "seconds": 1.5, "count": 100,
                 "flops": 300_000_000},
            ],
            traffic={(0, 1): (10, 4096), (1, 0): (10, 4096)},
            timeline={
                "nranks": 2,
                "nsteps": 100,
                "phases": list(PHASES),
                "per_rank": [
                    {"rank": 0, "compute_seconds": 1.25,
                     "comm_seconds": 0.25, "interface_fraction": 0.125},
                    {"rank": 1, "compute_seconds": 1.0,
                     "comm_seconds": 0.5, "interface_fraction": 0.25},
                ],
                "mean_step_imbalance": 0.2,
                "max_step_imbalance": 0.4,
                "overlap_ratio": 0.75,
            },
            baseline_seconds=2.0,
            parallel_seconds=1.25,
            nranks=2,
            title="golden",
        )

    def test_golden_text(self):
        expected = "\n".join(
            [
                "golden",
                "======",
                "",
                "phase                                   "
                "seconds    calls        Mflop    Mflop/s",
                "-" * 80,
                "elastic.run                             "
                "  2.000        1            -          -",
                "  stiffness                             "
                "  1.500      100       300.00      200.0",
                "",
                "rank-pair traffic",
                "src->dst       messages          bytes",
                "-" * 38,
                "0 -> 1               10           4096",
                "1 -> 0               10           4096",
                "total                20           8192",
                "",
                "per-rank timeline (100 steps)",
                "rank  compute_s     comm_s iface_frac",
                "-" * 38,
                "   0      1.250      0.250      0.125",
                "   1      1.000      0.500      0.250",
                "mean step imbalance 0.200   overlap ratio 0.750",
                "",
                "parallel efficiency vs 1-rank baseline: 0.800  "
                "(P=2, T1=2.000s, TP=1.250s)",
            ]
        )
        assert self._fixed_report().as_text() == expected

    def test_as_dict_round_trips_through_json(self):
        d = self._fixed_report().as_dict()
        d2 = json.loads(json.dumps(d))
        assert d2["efficiency"] == pytest.approx(0.8)
        assert d2["traffic"]["0->1"] == {"messages": 10, "bytes": 4096}

    def test_efficiency_requires_all_inputs(self):
        assert PerfReport(baseline_seconds=1.0).efficiency is None
        r = PerfReport(
            baseline_seconds=4.0, parallel_seconds=1.0, nranks=4
        )
        assert r.efficiency == 1.0

    def test_collect_from_live_objects(self):
        telemetry.enable()
        with telemetry.span("work") as s:
            s.add("flops", 1000)
        fc = telemetry.CategoryCounter()
        fc.add("stiffness", 500)
        st = TrafficStats()
        st.record_send(0, 1, 64)

        class World:
            stats = [st]
            nranks = 2

        report = PerfReport.collect(
            tracer=telemetry.current_tracer(),
            world=World(),
            flops=fc,
            metrics=telemetry.metrics(),
            baseline_seconds=1.0,
            parallel_seconds=0.5,
        )
        by_path = {p["path"]: p for p in report.phases}
        assert by_path["work"]["flops"] == 1000
        assert by_path["flops/stiffness"]["flops"] == 500
        assert report.traffic == {(0, 1): (1, 64)}
        assert report.nranks == 2  # taken from the world
        assert report.efficiency == 1.0
        assert report.total_traffic() == (1, 64)
