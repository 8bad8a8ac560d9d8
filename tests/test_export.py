"""Observability: request tracing, metric exporters, live status, and
the flight recorder.

The contracts under test:

* **Quantiles** — histograms report exact p50/p95/p99 under the
  sample cap and bounded-error bucket estimates beyond it.
* **Ring buffer** — the span event stream keeps the *most recent* N
  events, counts evictions, and surfaces the count in every export.
* **Trace propagation** — a request's trace id survives coalescing,
  the engine dispatch, both transports
  (piggybacked on the ProcWorld pipe protocol), and a mid-run rank
  kill + respawn — stitching back into one per-request trace.
* **Exporters** — Prometheus text and JSONL snapshots render the same
  registry; the status file is atomic; the flight recorder dumps a
  usable postmortem on worker failure and health violations.
"""

import json
import os

import numpy as np
import pytest

from repro import telemetry
from repro.materials import HomogeneousMaterial
from repro.mesh import rcb_partition, uniform_hex_mesh
from repro.parallel import DistributedWaveSolver, ProcWorld, SimWorld
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    NumericalHealthError,
    RetryPolicy,
    check_finite,
)
from repro.service import (
    CoalescingScheduler,
    Engine,
    ForwardRequest,
    SimulationSpec,
)
from repro.sources import idealized_northridge, idealized_strike_slip
from repro.telemetry.export import (
    MetricsJsonlExporter,
    StatusFile,
    arm_flight_recorder,
    flight_dump,
    prometheus_text,
    stitch_trace,
)
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.spans import Tracer

MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)

SPEC_KW = dict(
    material=MAT,
    L=8000.0,
    fmax=0.4,
    box_frac=(1, 1, 0.5),
    max_level=3,
)

RECEIVERS = np.array([[4000.0, 4000.0, 0.0], [2000.0, 3000.0, 0.0]])


@pytest.fixture(autouse=True)
def _telemetry_off():
    telemetry.disable()
    telemetry.reset()
    arm_flight_recorder(None)
    yield
    telemetry.disable()
    telemetry.reset()
    arm_flight_recorder(None)


# ----------------------------------------------------------- quantiles


class TestHistogramQuantiles:
    def test_exact_quantiles_small_population(self):
        h = Histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.5) == pytest.approx(
            float(np.percentile(np.arange(1.0, 101.0), 50))
        )
        assert h.quantile(0.95) == pytest.approx(
            float(np.percentile(np.arange(1.0, 101.0), 95))
        )

    def test_as_dict_carries_percentiles(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        d = h.as_dict()
        assert d["p50"] == 2.0
        assert "p95" in d and "p99" in d
        assert Histogram("empty").as_dict().get("p50") is None

    def test_bucketed_beyond_cap_bounded_error(self):
        h = Histogram("lat")
        n = Histogram.EXACT_CAP + 1000
        rng = np.random.RandomState(7)
        xs = rng.lognormal(0.0, 2.0, size=n)
        for v in xs:
            h.observe(v)
        assert h.buckets is not None and not h.samples
        assert h.n == n
        for q in (0.5, 0.95, 0.99):
            est = h.quantile(q)
            true = float(np.quantile(xs, q))
            # log2 buckets: estimate within one bucket (factor ~2)
            assert true / 2.1 <= est <= true * 2.1
        assert h.quantile(1.0) == pytest.approx(h.max)

    def test_quantile_bounds_checked(self):
        h = Histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        assert Histogram("empty").quantile(0.5) == 0.0


# --------------------------------------------------------- ring buffer


class TestEventRing:
    def test_ring_keeps_most_recent_and_counts_drops(self):
        tr = Tracer(max_events=4)
        for i in range(10):
            with tr.span(f"s{i}"):
                pass
        assert len(tr.events) == 4
        assert tr.dropped_events == 6
        # ring semantics: the survivors are the LAST four spans
        names = [node.name for node, *_ in tr.events]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_dump_surfaces_drop_count_and_metric(self, tmp_path):
        telemetry.enable(max_events=3)
        for i in range(8):
            with telemetry.span("work"):
                pass
        path = str(tmp_path / "t.jsonl")
        telemetry.dump_jsonl(path)
        recs = [json.loads(l) for l in open(path)]
        meta = next(r for r in recs if r["type"] == "meta")
        assert meta["dropped_events"] == 5
        dropped = next(
            r for r in recs
            if r["type"] == "metric"
            and r["name"] == "telemetry.events.dropped"
        )
        assert dropped["value"] == 5

    def test_no_drop_counter_when_nothing_dropped(self, tmp_path):
        telemetry.enable()
        with telemetry.span("work"):
            pass
        telemetry.sync_dropped_counter()
        assert "telemetry.events.dropped" not in telemetry.metrics()


# ------------------------------------------------------- trace context


class TestTraceContext:
    def test_ids_unique_and_pid_scoped(self):
        a, b = telemetry.new_trace_id(), telemetry.new_trace_id()
        assert a != b
        assert a.startswith(f"t{os.getpid():x}-")

    def test_context_nesting_restores(self):
        assert telemetry.get_trace_context() is None
        with telemetry.trace_context("outer"):
            assert telemetry.get_trace_context() == "outer"
            with telemetry.trace_context("inner"):
                assert telemetry.get_trace_context() == "inner"
            assert telemetry.get_trace_context() == "outer"
        assert telemetry.get_trace_context() is None

    def test_events_tagged_with_active_trace(self):
        tr = telemetry.enable()
        with telemetry.trace_context("t-req"):
            with telemetry.span("solve"):
                pass
        with telemetry.span("untraced"):
            pass
        tags = {node.name: trace for node, _, _, trace in tr.events}
        assert tags == {"solve": "t-req", "untraced": None}

    def test_record_event_and_stitch_links(self):
        tr = telemetry.enable()
        with telemetry.trace_context("t-batch"):
            with telemetry.span("solve"):
                pass
        tr.record_event(
            ("queue",), 0.0, 0.5, trace_id="t-req", counters={"batch": 2}
        )
        tr.record_event(("other",), 0.0, 0.1, trace_id="t-unrelated")
        tr.link_trace("t-req", "t-batch")
        st = stitch_trace("t-req", tr)
        paths = {e["path"] for e in st["events"]}
        assert paths == {"queue", "solve"}  # linked batch pulled in
        assert st["linked"] == ["t-batch"]
        assert st["duration"] > 0.0
        # the aggregate tree absorbed the post-hoc interval
        agg = {a["path"]: a for a in tr.aggregates()}
        assert agg["queue"]["seconds"] == 0.5
        assert agg["queue"]["counters"]["batch"] == 2

    def test_dump_jsonl_emits_trace_links(self, tmp_path):
        tr = telemetry.enable()
        with telemetry.trace_context("t-1"):
            with telemetry.span("a"):
                pass
        tr.link_trace("t-1", "t-0")
        path = str(tmp_path / "t.jsonl")
        telemetry.dump_jsonl(path)
        recs = [json.loads(l) for l in open(path)]
        ev = next(r for r in recs if r["type"] == "event")
        assert ev["trace"] == "t-1"
        link = next(r for r in recs if r["type"] == "trace_link")
        assert link == {
            "type": "trace_link", "trace": "t-1", "parent": "t-0",
        }


# ----------------------------------------------------------- exporters


class TestPrometheus:
    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("service.requests").add(7)
        reg.gauge("service.cache.hit_ratio").set(0.75)
        h = reg.histogram("service.latency.total")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        text = prometheus_text(reg, include_spans=False)
        assert "# TYPE repro_service_requests_total counter" in text
        assert "repro_service_requests_total 7" in text
        assert "repro_service_cache_hit_ratio 0.75" in text
        assert 'repro_service_latency_total{quantile="0.5"} 0.2' in text
        assert "repro_service_latency_total_count 3" in text
        assert "repro_service_latency_total_sum" in text

    def test_span_totals_rendered_from_tracer(self):
        telemetry.enable()
        with telemetry.span("dist.run"):
            pass
        text = prometheus_text()
        assert 'repro_span_calls_total{path="dist.run"} 1' in text

    def test_write_prometheus_atomic(self, tmp_path):
        telemetry.enable()
        telemetry.count("x", 3)
        path = str(tmp_path / "prom.txt")
        telemetry.write_prometheus(path)
        assert "repro_x_total 3" in open(path).read()
        assert not list(tmp_path.glob("*.tmp"))


class TestJsonlExporter:
    def test_export_appends_snapshots(self, tmp_path):
        telemetry.enable()
        telemetry.count("reqs", 2)
        path = str(tmp_path / "m.jsonl")
        exp = MetricsJsonlExporter(path)
        exp.export()
        telemetry.count("reqs", 3)
        exp.export(extra={"drain": 1})
        recs = [json.loads(l) for l in open(path)]
        assert [r["seq"] for r in recs] == [0, 1]
        assert recs[0]["metrics"]["reqs"]["value"] == 2
        assert recs[1]["metrics"]["reqs"]["value"] == 5
        assert recs[1]["drain"] == 1

    def test_interval_gating(self, tmp_path):
        exp = MetricsJsonlExporter(str(tmp_path / "m.jsonl"), interval=3600)
        assert exp.maybe_export() is True
        assert exp.maybe_export() is False


class TestStatusFile:
    def test_write_read_roundtrip(self, tmp_path):
        st = StatusFile(str(tmp_path / "status.json"))
        st.write({"served": 4, "queue": {"depth": 0}})
        snap = st.read()
        assert snap["served"] == 4
        assert snap["pid"] == os.getpid()
        assert snap["ts"] > 0
        assert not list(tmp_path.glob("*.tmp"))

    def test_read_missing_or_torn_is_none(self, tmp_path):
        st = StatusFile(str(tmp_path / "nope.json"))
        assert st.read() is None
        with open(st.path, "w") as f:
            f.write('{"torn": ')
        assert st.read() is None


class TestFlightRecorder:
    def test_dump_contains_tail_and_metrics(self, tmp_path):
        telemetry.enable()
        telemetry.count("resilience.worker_failures")
        with telemetry.trace_context("t-9"):
            with telemetry.span("dist.run"):
                pass
        rec = arm_flight_recorder(str(tmp_path / "flight"), max_events=8)
        path = rec.dump("worker_failure: rank 1 dead")
        recs = [json.loads(l) for l in open(path)]
        meta = recs[0]
        assert meta["type"] == "flight_meta"
        assert "rank 1 dead" in meta["reason"]
        assert meta["telemetry_enabled"] is True
        kinds = {r["type"] for r in recs}
        assert {"event", "metric"} <= kinds
        ev = next(r for r in recs if r["type"] == "event")
        assert ev["trace"] == "t-9"

    def test_flight_dump_module_gate(self, tmp_path):
        assert flight_dump("nothing armed") is None
        arm_flight_recorder(str(tmp_path))
        p = flight_dump("armed now")
        assert p is not None and os.path.exists(p)

    def test_health_violation_dumps(self, tmp_path):
        arm_flight_recorder(str(tmp_path / "flight"))
        bad = np.array([1.0, np.nan, 3.0])
        with pytest.raises(NumericalHealthError):
            check_finite(bad, step=12, rank=0)
        dumps = os.listdir(str(tmp_path / "flight"))
        assert len(dumps) == 1
        meta = json.loads(open(
            os.path.join(str(tmp_path / "flight"), dumps[0])
        ).readline())
        assert "numerical_health" in meta["reason"]
        assert "step 12" in meta["reason"]


# ------------------------------------------- service request tracing


class TestServiceTracing:
    def test_coalesced_requests_get_stitched_traces(self):
        telemetry.enable()
        spec = SimulationSpec(**SPEC_KW)
        s1 = idealized_strike_slip(L=spec.L)
        s2 = idealized_northridge(L=spec.L)
        with Engine() as engine:
            sim = engine.simulation(spec)
            t_end = 10.5 * sim.dt
            sched = CoalescingScheduler(engine, max_batch=4)
            with sched:
                r1 = ForwardRequest(spec, s1, t_end, receivers=RECEIVERS)
                r2 = ForwardRequest(spec, s2, t_end, receivers=RECEIVERS)
                sched.map_wait([r1, r2])
            assert sched.stats()["batches"] == 1  # they coalesced
        tr = telemetry.current_tracer()
        assert r1.trace_id is not None and r2.trace_id is not None
        assert r1.trace_id != r2.trace_id
        # both link to the same batch trace
        assert tr.trace_links[r1.trace_id] == tr.trace_links[r2.trace_id]
        # latency histograms: per-request queue/total, per-batch solve
        reg = telemetry.metrics()
        assert reg["service.latency.total"].n == 2
        assert reg["service.latency.queue"].n == 2
        assert reg["service.latency.solve"].n == 1
        assert reg["service.batch_size"].quantile(0.5) == 2.0
        # stitching a request pulls in the shared solve spans
        st = stitch_trace(r1.trace_id, tr)
        paths = {e["path"] for e in st["events"]}
        assert "service.request/queue" in paths
        assert any("service.dispatch" in p for p in paths)
        assert st["linked"] == [tr.trace_links[r1.trace_id]]
        # the sibling request's own events are NOT pulled in
        assert not any(
            e["trace"] == r2.trace_id for e in st["events"]
        )

    def test_disabled_scheduler_mints_no_traces(self):
        spec = SimulationSpec(**SPEC_KW)
        scen = idealized_strike_slip(L=spec.L)
        with Engine() as engine:
            sim = engine.simulation(spec)
            with CoalescingScheduler(engine) as sched:
                req = ForwardRequest(spec, scen, 5.5 * sim.dt)
                [(i, seis, err)] = sched.solve([req])
        assert (i, err) == (0, None) and seis is None
        assert req.trace_id is None
        assert not telemetry.enabled()


# --------------------------------------------- distributed trace tags


def _dist_problem():
    mesh = uniform_hex_mesh(4)
    parts = rcb_partition(mesh.elem_centers, 2)
    return mesh, parts


class _PointForce:
    """Picklable point force for worker processes."""

    def __init__(self, node, nnode):
        self.node = node
        self.nnode = nnode

    def __call__(self, t, out=None):
        if out is None:
            out = np.zeros((self.nnode, 3))
        else:
            out.fill(0.0)
        out[self.node, 2] = 1e9 * np.exp(-(((t - 0.05) / 0.02) ** 2))
        return out


class TestDistributedTraceTags:
    def test_simworld_timelines_carry_trace(self):
        telemetry.enable()
        mesh, parts = _dist_problem()
        force = _PointForce(mesh.nnode // 2, mesh.nnode)
        solver = DistributedWaveSolver(mesh, MAT, parts, SimWorld(2))
        with telemetry.trace_context("t-sim"):
            solver.run(force, 8.5 * solver.dt)
        assert solver.last_timeline is not None
        assert all(
            r.trace_id == "t-sim" for r in solver.last_timeline.ranks
        )
        recs = solver.last_timeline.span_records()
        assert all(r["trace"] == "t-sim" for r in recs)

    def test_procworld_trace_crosses_pipe_protocol(self):
        telemetry.enable()
        mesh, parts = _dist_problem()
        force = _PointForce(mesh.nnode // 2, mesh.nnode)
        with ProcWorld(2) as world:
            solver = DistributedWaveSolver(mesh, MAT, parts, world)
            with telemetry.trace_context("t-proc"):
                solver.run(force, 8.5 * solver.dt)
        # the trace id travelled master -> worker pipe -> timeline
        # payload -> master, across process boundaries
        assert all(
            r.trace_id == "t-proc" for r in solver.last_timeline.ranks
        )

    def test_payload_roundtrip_preserves_trace(self):
        from repro.telemetry import RankTimeline

        tl = RankTimeline(1, 3, trace_id="t-x")
        tl2 = RankTimeline.from_payload(tl.to_payload())
        assert tl2.trace_id == "t-x"
        # absent field stays None (older payloads)
        tl3 = RankTimeline.from_payload(
            {"rank": 0, "nsteps": 2, "durations": np.zeros((2, 5))}
        )
        assert tl3.trace_id is None


class TestTraceSurvivesKillRecovery:
    def test_killed_rank_respawn_yields_complete_trace(self, tmp_path):
        """A fault-injected request still produces one stitched trace:
        per-rank timelines tagged with the request id after respawn,
        plus a recovery annotation and a flight-recorder artifact."""
        telemetry.enable()
        flight_dir = str(tmp_path / "flight")
        arm_flight_recorder(flight_dir)
        mesh, parts = _dist_problem()
        force = _PointForce(mesh.nnode // 2, mesh.nnode)
        d = str(tmp_path / "ckpt")
        with ProcWorld(2) as world:
            solver = DistributedWaveSolver(mesh, MAT, parts, world)
            plan = FaultPlan([FaultSpec("kill", rank=1, step=13)])
            with telemetry.trace_context("t-faulted"):
                solver.run(
                    force, 24.5 * solver.dt, checkpoint_dir=d,
                    checkpoint_every=5, faults=plan,
                    retry=RetryPolicy(backoff=0.0),
                )
            assert world.respawns == 1
        # the respawned ranks' timelines still carry the request trace
        assert all(
            r.trace_id == "t-faulted"
            for r in solver.last_timeline.ranks
        )
        # the recovery window is annotated into the same trace
        tr = telemetry.current_tracer()
        recovery = [
            (node, t0, dt, trace)
            for node, t0, dt, trace in tr.events
            if node.name == "recovery"
        ]
        assert len(recovery) == 1
        assert recovery[0][3] == "t-faulted"
        agg = {a["path"]: a for a in tr.aggregates()}
        assert agg["dist.run/recovery"]["count"] == 1
        # the stitched request trace covers solve + recovery
        st = stitch_trace(
            "t-faulted", tr,
            extra_records=solver.last_timeline.span_records(),
        )
        assert "dist.run/recovery" in {e["path"] for e in st["events"]}
        assert len(st["rank_spans"]) > 0
        # and the flight recorder captured the failure
        dumps = os.listdir(flight_dir)
        assert len(dumps) == 1
        meta = json.loads(
            open(os.path.join(flight_dir, dumps[0])).readline()
        )
        assert "worker_failure" in meta["reason"]
        assert meta["trace_context"] == "t-faulted"


# --------------------------------------------------- per-drain scoping


class TestPerDrainCacheScope:
    def test_stats_since_baseline(self):
        from repro.service import ArtifactCache

        cache = ArtifactCache(capacity=4)
        cache.get_or_build("k1", lambda: "a1")  # miss + build
        cache.get_or_build("k1", lambda: "a1")  # hit
        base = cache.counters()
        # second "drain": two hits, one miss
        cache.get_or_build("k1", lambda: "a1")
        cache.get_or_build("k1", lambda: "a1")
        cache.get_or_build("k2", lambda: "a2")
        drain = cache.stats_since(base)
        assert (drain["hits"], drain["misses"]) == (2, 1)
        assert drain["hit_rate"] == pytest.approx(2 / 3)
        # lifetime stats unaffected
        life = cache.stats()
        assert (life["hits"], life["misses"]) == (3, 2)

    def test_drain_section_in_report_text(self):
        from repro.telemetry import PerfReport

        r = PerfReport(
            service={
                "hits": 10, "misses": 2, "entries": 3,
                "build_seconds": 1.0,
                "drain": {"hits": 1, "misses": 1,
                          "build_seconds": 0.5, "hit_rate": 0.5},
            }
        )
        text = r.as_text()
        assert "this drain: 1/2 hits (50%)" in text

    def test_latency_quantile_section_renders(self):
        from repro.telemetry import PerfReport

        reg = MetricsRegistry()
        h = reg.histogram("service.latency.total")
        for v in (0.1, 0.2, 0.3, 0.4):
            h.observe(v)
        text = PerfReport(metrics=reg.as_dict()).as_text()
        assert "service latency quantiles" in text
        assert "total" in text
        # absent without latency histograms
        assert "quantiles" not in PerfReport().as_text()


# ----------------------------------------------- disabled-path safety


class TestDisabledPath:
    def test_trace_context_works_without_tracer(self):
        assert not telemetry.enabled()
        with telemetry.trace_context("t-off"):
            assert telemetry.get_trace_context() == "t-off"
            with telemetry.span("noop"):
                pass  # null span, no tracer to record into
        assert telemetry.get_trace_context() is None

    def test_observe_gated(self):
        telemetry.observe("service.latency.total", 1.0)
        assert "service.latency.total" not in telemetry.metrics()

    def test_stitch_without_tracer_is_empty(self):
        st = stitch_trace("t-any", None)
        assert st["events"] == [] and st["duration"] == 0.0
