"""``repro.telemetry`` — unified instrumentation for the repro stack.

One subsystem answers "where did the time go" for any run:

* **spans** — hierarchical tracing (:func:`span`) with aggregated wall
  time + call counts + attached counters, near-zero overhead when
  disabled (see :mod:`repro.telemetry.spans`);
* **metrics** — a global :class:`MetricsRegistry` of counters, gauges,
  histograms, and per-step series (:func:`sample`, :func:`gauge`), plus
  :class:`CategoryCounter`, the per-category flop tally a solver holds
  as ``solver.flops``;
* **timelines** — per-rank phase timelines of the distributed time
  loop, merged into comm/compute-overlap and load-imbalance views
  (:mod:`repro.telemetry.timeline`);
* **exporters** — :func:`dump_jsonl` trace dumps, the flight recorder
  and the other :mod:`repro.telemetry.export` writers, and the
  Table-2.1-style :class:`PerfReport`.  The tracer builds the ``span``,
  ``event`` and ``trace_link`` records and this module the ``metric``
  records, each in one place; every file reads them from there.

Enable via :func:`enable`, the ``REPRO_TELEMETRY=1`` environment
variable, or the ``repro profile`` CLI.  While disabled every hook is
a single ``is None`` test, so instrumented hot loops stay
zero-allocation and bitwise-identical.
"""

from __future__ import annotations

from .metrics import (
    CategoryCounter,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)
from .report import PerfReport
from .spans import (
    SpanStats,
    Tracer,
    add,
    annotate,
    current_tracer,
    enabled,
    get_trace_context,
    new_trace_id,
    no_span,
    set_trace_context,
    span,
    trace_context,
)
from .spans import disable as _spans_disable
from .spans import enable as _spans_enable
from .timeline import PHASES, MergedTimeline, RankTimeline

__all__ = [
    "CategoryCounter",
    "Counter",
    "Gauge",
    "Histogram",
    "MergedTimeline",
    "MetricsRegistry",
    "PHASES",
    "PerfReport",
    "RankTimeline",
    "Series",
    "SpanStats",
    "Tracer",
    "add",
    "annotate",
    "count",
    "current_tracer",
    "disable",
    "dump_jsonl",
    "enable",
    "enabled",
    "gauge",
    "get_trace_context",
    "metrics",
    "new_trace_id",
    "no_span",
    "observe",
    "reset",
    "sample",
    "sample_alloc",
    "set_trace_context",
    "span",
    "trace_context",
]

#: process-wide metrics registry; like the tracer it is always present
#: but only written to while telemetry is enabled
_registry = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The global metrics registry."""
    return _registry


def enable(*, max_events: int = 65536, fresh: bool = True) -> Tracer:
    """Turn telemetry on (tracer + metrics sampling); returns the
    active tracer.  ``fresh=True`` also clears the metrics registry."""
    if fresh:
        _registry.reset()
    return _spans_enable(max_events=max_events, fresh=fresh)


def disable() -> None:
    """Turn telemetry off.  Collected data stays readable through
    :func:`metrics` and the tracer reference you hold."""
    _spans_disable()


def reset() -> None:
    """Drop all collected telemetry (tracer state is rebuilt on the
    next :func:`enable`; the metrics registry is emptied now)."""
    _registry.reset()
    if enabled():
        _spans_enable(fresh=True)


def sample(name: str, value, step=None) -> None:
    """Append ``value`` to the per-step series ``name``.  No-op while
    telemetry is disabled."""
    if enabled():
        _registry.series(name).append(value, step=step)


def gauge(name: str, value) -> None:
    """Set the gauge ``name``.  No-op while telemetry is disabled."""
    if enabled():
        _registry.gauge(name).set(value)


def count(name: str, n: int = 1) -> None:
    """Bump the counter ``name`` by ``n``.  No-op while telemetry is
    disabled (used by the resilience layer to tally checkpoint,
    fault, retry, and health-guard events)."""
    if enabled():
        _registry.counter(name).add(n)


def observe(name: str, value) -> None:
    """Observe ``value`` in the histogram ``name`` (service latency
    distributions, batch sizes).  No-op while telemetry is disabled."""
    if enabled():
        _registry.histogram(name).observe(value)


def sample_alloc(name: str = "alloc.peak_bytes", step=None) -> None:
    """Sample the current traced-memory peak (bytes) into a series.

    Only records when telemetry is enabled AND :mod:`tracemalloc` is
    tracing — starting tracemalloc is left to the caller because it
    slows allocation globally."""
    if enabled():
        import tracemalloc

        if tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            _registry.series(name).append(peak, step=step)


def dump_jsonl(path: str, *, extra_records=()) -> int:
    """Dump the active trace (plus a metrics snapshot) as JSON lines.
    Returns the number of lines written; 0 if telemetry is disabled."""
    tr = current_tracer()
    if tr is None:
        return 0
    return tr.dump_jsonl(
        path, extra_records=[*extra_records, *_metric_records()]
    )


def _metric_records() -> list[dict]:
    """One ``metric`` record per registry entry, the drop count synced
    first: the entry's own fields with its kind under ``metric_type``,
    ``type`` set to ``"metric"``, then ``name``."""
    sync_dropped_counter()
    return [
        {**m, "metric_type": m["type"], "type": "metric", "name": name}
        for name, m in _registry.as_dict().items()
    ]


def sync_dropped_counter() -> None:
    """Mirror the tracer's ring-buffer eviction count into the
    ``telemetry.events.dropped`` counter.  Called at export time (not
    per eviction) so the hot path stays one ``is None`` test."""
    tr = current_tracer()
    if tr is not None and tr.dropped_events:
        c = _registry.counter("telemetry.events.dropped")
        c.value = tr.dropped_events


# imported last: export builds on the registry/tracer defined above
from .export import (  # noqa: E402
    FlightRecorder,
    MetricsJsonlExporter,
    StatusFile,
    arm_flight_recorder,
    flight_dump,
    prometheus_text,
    stitch_trace,
    write_prometheus,
)

__all__ += [
    "FlightRecorder",
    "MetricsJsonlExporter",
    "StatusFile",
    "arm_flight_recorder",
    "flight_dump",
    "prometheus_text",
    "stitch_trace",
    "sync_dropped_counter",
    "write_prometheus",
]
