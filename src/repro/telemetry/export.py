"""Telemetry exporters: Prometheus text, JSONL snapshots, trace
stitching, the serve status file, and the flight recorder.

Four consumers of the same collected state:

* :func:`prometheus_text` renders the :class:`MetricsRegistry` in the
  Prometheus exposition format (counters as ``_total``, histograms as
  summaries with ``quantile`` labels, plus span totals while a tracer
  is active) for a scrape endpoint or a node-exporter textfile
  collector;
* :class:`MetricsJsonlExporter` appends registry snapshots to a JSONL
  file — the poor man's time-series database;
* :func:`stitch_trace` reassembles one request's end-to-end trace from
  the tracer's ``event`` records + trace links + per-rank timeline
  records;
* :class:`StatusFile` atomically publishes the live service state that
  ``repro top`` renders, and :class:`FlightRecorder` dumps the last-N
  events + a metric snapshot when resilience detects a dead rank or a
  numerical health violation.

The trace records themselves (``span``, ``event``, ``trace_link``) are
built by :class:`repro.telemetry.spans.Tracer` and the ``metric``
records by :mod:`repro.telemetry`; the trace dump, the flight dump and
the stitcher only choose which of them to write.  A trace dump holds
``meta``, every ``span``, every ``event``, every ``trace_link``, the
caller's extra records, then every ``metric``; a flight dump holds
``flight_meta``, the newest ``max_events`` events, every
``trace_link``, then every ``metric``.

Everything here runs at export time, never on the hot path: the only
cost telemetry-off code pays for this module existing is the import.
"""

from __future__ import annotations

import itertools
import json
import os
import time

from repro.durable import atomic_write

__all__ = [
    "FlightRecorder",
    "MetricsJsonlExporter",
    "StatusFile",
    "arm_flight_recorder",
    "flight_dump",
    "prometheus_text",
    "stitch_trace",
    "write_prometheus",
]

#: quantiles rendered for every histogram, in exposition order
QUANTILES = (0.5, 0.95, 0.99)


def _prom_name(name: str) -> str:
    """Map a dotted metric name to a Prometheus-legal one."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    s = "".join(out)
    if s and s[0].isdigit():
        s = "_" + s
    return "repro_" + s


def _finite(v) -> float:
    return float(v) if v is not None else 0.0


def prometheus_text(registry=None) -> str:
    """The metrics registry (and the span totals, while a tracer is
    active) in the Prometheus text exposition format, version 0.0.4."""
    from repro import telemetry as T

    if registry is None:
        T.sync_dropped_counter()
        registry = T.metrics()
    lines: list[str] = []
    for name, m in sorted(registry.as_dict().items()):
        pname = _prom_name(name)
        kind = m["type"]
        if kind == "counter":
            lines.append(f"# TYPE {pname}_total counter")
            lines.append(f"{pname}_total {m['value']}")
        elif kind == "gauge":
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_finite(m['value'])}")
        elif kind == "histogram":
            # rendered as a summary: quantile-labelled gauges + the
            # canonical _sum/_count pair
            lines.append(f"# TYPE {pname} summary")
            hist = registry[name]
            for q in QUANTILES:
                lines.append(
                    f'{pname}{{quantile="{q}"}} {hist.quantile(q)}'
                )
            lines.append(f"{pname}_sum {hist.sum}")
            lines.append(f"{pname}_count {hist.n}")
        elif kind == "series":
            if m["values"]:
                lines.append(f"# TYPE {pname} gauge")
                lines.append(f"{pname} {m['values'][-1]}")
    tr = T.current_tracer()
    if tr is not None:
        lines.append("# TYPE repro_span_seconds counter")
        lines.append("# TYPE repro_span_calls_total counter")
        for agg in tr.aggregates():
            label = agg["path"].replace('"', "'")
            lines.append(
                f'repro_span_seconds{{path="{label}"}} {agg["seconds"]}'
            )
            lines.append(
                f'repro_span_calls_total{{path="{label}"}} {agg["count"]}'
            )
    return "\n".join(lines) + "\n"


def write_prometheus(path: str, registry=None) -> None:
    """Atomically write :func:`prometheus_text` to ``path`` (the
    node-exporter textfile-collector contract)."""
    text = prometheus_text(registry)
    atomic_write(path, lambda f: f.write(text))


class MetricsJsonlExporter:
    """Appends registry snapshots to a JSONL file, one object per
    line: ``{"ts": ..., "seq": ..., "metrics": {...}}``.

    Driven by whoever owns a convenient loop (the serve loop calls
    :meth:`export` once per pass); no thread of its own, so arming it
    costs nothing between calls."""

    def __init__(self, path: str):
        self.path = path
        self.seq = 0

    def export(self, extra: dict | None = None) -> int:
        """Write one snapshot now; returns the sequence number."""
        from repro import telemetry as T

        T.sync_dropped_counter()
        rec = {
            "ts": time.time(),
            "seq": self.seq,
            "metrics": T.metrics().as_dict(),
        }
        if extra:
            rec.update(extra)
        with open(self.path, "a") as f:
            f.write(json.dumps(rec) + "\n")
        self.seq += 1
        return self.seq - 1


# ---------------------------------------------------------- stitching


def _linked_ids(trace_id: str, links: dict[str, str]) -> set[str]:
    """``trace_id`` and its ancestor chain (the batches it was solved
    inside).  Descendants are not collected, so a request's stitched
    trace never pulls in the peers it shared a batch with."""
    ids = {trace_id}
    cur = trace_id
    # the parent chain; a cycle in the links ends the walk
    while cur in links and links[cur] not in ids:
        cur = links[cur]
        ids.add(cur)
    return ids


def stitch_trace(trace_id: str, tracer=None, extra_records=()) -> dict:
    """Reassemble one request's end-to-end trace.

    Collects every ring-buffer event tagged with ``trace_id`` or with
    a trace linked to it (the coalesced batch's solve spans), plus any
    ``extra_records`` (per-rank timeline ``rank_span`` records)
    carrying a matching ``trace`` field.  Returns::

        {"trace": id, "linked": [...], "events": [...],
         "rank_spans": [...], "t_start": ..., "duration": ...}

    Events are ``{"path", "t_start", "duration", "trace"}`` sorted by
    start time on the tracer clock.
    """
    from repro import telemetry as T

    if tracer is None:
        tracer = T.current_tracer()
    if tracer is None:
        return {"trace": trace_id, "linked": [], "events": [],
                "rank_spans": [], "t_start": None, "duration": 0.0}
    ids = _linked_ids(trace_id, tracer.trace_links)
    events = [
        {k: v for k, v in rec.items() if k != "type"}
        for rec in tracer._event_records()
        if rec.get("trace") in ids
    ]
    events.sort(key=lambda e: e["t_start"])
    rank_spans = [
        dict(rec)
        for rec in extra_records
        if rec.get("type") == "rank_span" and rec.get("trace") in ids
    ]
    if events:
        t_start = events[0]["t_start"]
        t_end = max(e["t_start"] + e["duration"] for e in events)
        duration = t_end - t_start
    else:
        t_start, duration = None, 0.0
    return {
        "trace": trace_id,
        "linked": sorted(ids - {trace_id}),
        "events": events,
        "rank_spans": rank_spans,
        "t_start": t_start,
        "duration": duration,
    }


# ---------------------------------------------------------- status file


class StatusFile:
    """Atomically-published JSON status for live monitoring.

    ``repro serve`` writes it after every poll/drain; ``repro top``
    (or anything else) reads it without coordination — the write is
    :func:`repro.durable.atomic_write`, so a reader never sees a torn
    file."""

    def __init__(self, path: str):
        self.path = path

    def write(self, payload: dict) -> None:
        rec = {"ts": time.time(), "pid": os.getpid(), **payload}
        atomic_write(
            self.path, lambda f: json.dump(rec, f, indent=2, default=str)
        )

    def read(self) -> dict | None:
        try:
            with open(self.path) as f:
                return json.load(f)
        except (FileNotFoundError, json.JSONDecodeError):
            return None


# ------------------------------------------------------ flight recorder


class FlightRecorder:
    """Postmortem dumper: when resilience detects a dead/hung rank or
    a numerical health violation, :meth:`dump` snapshots the last N
    span events, the trace links, and the full metric registry to one
    JSONL artifact — the black box for the fault, no log archaeology.
    """

    def __init__(self, out_dir: str, max_events: int = 512):
        self.out_dir = out_dir
        self.max_events = int(max_events)
        self._seq = itertools.count(1)

    def dump(self, reason: str) -> str:
        from repro import telemetry as T

        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(
            self.out_dir,
            f"flight-{os.getpid()}-{next(self._seq):03d}.jsonl",
        )
        tr = T.current_tracer()
        records = [
            {
                "type": "flight_meta",
                "reason": reason,
                "ts": time.time(),
                "pid": os.getpid(),
                "telemetry_enabled": tr is not None,
                "dropped_events": tr.dropped_events if tr is not None else 0,
                "trace_context": T.get_trace_context(),
            }
        ]
        if tr is not None:
            records += tr._event_records(last=self.max_events)
            records += tr._link_records()
        records += T._metric_records()
        with open(path, "w") as f:
            f.writelines(json.dumps(rec) + "\n" for rec in records)
        return path


#: the armed recorder, or None — faults are rare, so the failure paths
#: that call :func:`flight_dump` pay one ``is None`` test at most
_flight: FlightRecorder | None = None


def arm_flight_recorder(
    out_dir: str | None, max_events: int = 512
) -> FlightRecorder | None:
    """Arm (or, with ``None``, disarm) the process-wide flight
    recorder; returns it."""
    global _flight
    _flight = (
        None if out_dir is None else FlightRecorder(out_dir, max_events)
    )
    return _flight


def flight_dump(reason: str) -> str | None:
    """Dump the armed flight recorder; returns the artifact path, or
    None when no recorder is armed."""
    if _flight is None:
        return None
    return _flight.dump(reason)


# environment arming: REPRO_FLIGHT_DIR=<dir> arms the recorder at
# import so CI fault matrices collect postmortems without code changes
_env_dir = os.environ.get("REPRO_FLIGHT_DIR", "").strip()
if _env_dir:
    arm_flight_recorder(_env_dir)
del _env_dir
