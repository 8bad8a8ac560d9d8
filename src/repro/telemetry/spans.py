"""Hierarchical tracing spans with near-zero disabled overhead.

The solvers' fused time loops are zero-allocation by contract, so the
instrumentation has to be free when it is off: :func:`span` is gated on
a single module-level reference (``_tracer``) and returns a shared
no-op singleton when telemetry is disabled — one attribute load, one
``is None`` test, no object construction.  Hot paths therefore call
``span("name")`` with a literal (no kwargs dict is built) and attach
counters through :func:`add`, which performs the same cheap gate.

When enabled, spans nest through a stack and *aggregate*: entering the
same name under the same parent accumulates wall seconds and a call
count into one :class:`SpanStats` node instead of growing a list, so a
100 000-step loop costs O(1) memory.  A bounded event ring records
individual ``(node, start, duration, trace)`` intervals; once the cap
is hit the oldest is evicted and counted as dropped rather than
silently lost.

The tracer is the one place its trace records are built: ``span``
records from :meth:`Tracer.aggregates` (a :meth:`SpanStats.walk` of
the tree, each node carrying the ``path`` it was created under),
``event`` records from the ring (optionally only its tail), and
``trace_link`` records from the link table.  :meth:`Tracer.dump_jsonl`,
the flight recorder and :func:`repro.telemetry.export.stitch_trace`
only choose which of these records to write.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import deque
from typing import Iterator

__all__ = [
    "SpanStats",
    "Tracer",
    "add",
    "annotate",
    "current_tracer",
    "disable",
    "enable",
    "enabled",
    "get_trace_context",
    "new_trace_id",
    "set_trace_context",
    "span",
    "trace_context",
]


class _NullSpan:
    """Shared do-nothing span handed out while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, counter: str, value) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


# ------------------------------------------------------- trace context
#
# A *trace id* names one request end to end: the scheduler mints one
# per submitted job, the service sets it as the ambient context around
# the solve, and every recorded span event (plus the per-rank
# timelines, which ship it through the ProcWorld pipe protocol) is
# tagged with it — so the exporter can stitch queue wait, solve
# phases, and demux back into one per-request trace.
# The context is independent of whether telemetry is enabled: worker
# processes run with telemetry off but still need to label the
# timelines they return.

_trace_seq = itertools.count(1)
_TRACE_CTX: str | None = None


def new_trace_id() -> str:
    """Mint a process-unique trace id (pid-qualified so ids minted by
    different serve processes sharing one spool never collide)."""
    return f"t{os.getpid():x}-{next(_trace_seq):06x}"


def set_trace_context(trace_id: str | None) -> str | None:
    """Set the ambient trace id; returns the previous one (restore it
    when done, or use the :func:`trace_context` manager)."""
    global _TRACE_CTX
    prev = _TRACE_CTX
    _TRACE_CTX = trace_id
    return prev


def get_trace_context() -> str | None:
    """The ambient trace id, or None outside any request."""
    return _TRACE_CTX


class trace_context:
    """``with trace_context("t1-0001"): ...`` — span events recorded
    inside the block are tagged with the id; nesting restores the
    outer id on exit.  ``None`` clears the context for the block."""

    __slots__ = ("_trace_id", "_prev")

    def __init__(self, trace_id: str | None):
        self._trace_id = trace_id
        self._prev = None

    def __enter__(self) -> "trace_context":
        self._prev = set_trace_context(self._trace_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_trace_context(self._prev)
        return False


class SpanStats:
    """Aggregated statistics of one span path in the trace tree."""

    __slots__ = (
        "name", "path", "depth", "seconds", "count", "counters", "children"
    )

    def __init__(self, name: str, depth: int, path: str = ""):
        self.name = name
        #: ``/``-joined names from the top-level span down to this one
        self.path = path
        self.depth = depth
        self.seconds = 0.0
        self.count = 0
        self.counters: dict[str, float] = {}
        self.children: dict[str, "SpanStats"] = {}

    def child(self, name: str) -> "SpanStats":
        node = self.children.get(name)
        if node is None:
            path = name if self.depth < 0 else f"{self.path}/{name}"
            node = self.children[name] = SpanStats(name, self.depth + 1, path)
        return node

    def add_counter(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def walk(self) -> Iterator["SpanStats"]:
        """This node, then its subtree depth-first in creation order."""
        yield self
        for c in self.children.values():
            yield from c.walk()


class _Span:
    """Active span context manager; one per ``with`` entry, bound to
    its aggregate node."""

    __slots__ = ("_tracer", "_node", "_t0")

    def __init__(self, tracer: "Tracer", node: SpanStats):
        self._tracer = tracer
        self._node = node
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self._node)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        dt = t1 - self._t0
        node = self._node
        node.seconds += dt
        node.count += 1
        tr = self._tracer
        tr._stack.pop()
        tr._push(node, self._t0 - tr.t_origin, dt, _TRACE_CTX)
        return False

    def add(self, counter: str, value) -> "_Span":
        self._node.add_counter(counter, value)
        return self


class Tracer:
    """Span collector: aggregate tree + bounded event stream."""

    def __init__(self, max_events: int = 65536):
        self.root = SpanStats("<root>", -1)
        self.max_events = int(max_events)
        # ring buffer of (node, t_start_rel, duration, trace_id) — the
        # oldest interval is evicted (and counted) once the cap is hit
        self.events: deque[tuple[SpanStats, float, float, str | None]] = deque()
        self.dropped_events = 0
        self.trace_links: dict[str, str] = {}
        self.t_origin = time.perf_counter()
        self._stack: list[SpanStats] = [self.root]

    # --------------------------------------------------------- recording

    def _push(
        self, node: SpanStats, t_rel: float, dt: float, trace: str | None
    ) -> None:
        events = self.events
        if len(events) >= self.max_events:
            # ring semantics: evict the oldest so the stream always
            # holds the most recent window (what a postmortem wants),
            # and count the eviction instead of losing it silently
            events.popleft()
            self.dropped_events += 1
        events.append((node, t_rel, dt, trace))

    def span(self, name: str, attrs: dict | None = None) -> _Span:
        node = self._stack[-1].child(name)
        if attrs:
            for k, v in attrs.items():
                node.add_counter(k, v)
        return _Span(self, node)

    def add(self, counter: str, value) -> None:
        """Attach ``value`` to the innermost open span (or the root)."""
        self._stack[-1].add_counter(counter, value)

    def annotate(self, path: tuple[str, ...], counter: str, value) -> None:
        """Attach a counter to the span at ``path`` (created if absent)
        without opening it — used to attribute totals post hoc."""
        node = self.root
        for name in path:
            node = node.child(name)
        node.add_counter(counter, value)

    def record_event(
        self,
        path: tuple[str, ...],
        t_start: float,
        duration: float,
        *,
        trace_id: str | None = None,
        counters: dict | None = None,
    ) -> None:
        """Record an interval measured outside a ``with span`` block
        (e.g. queue wait reconstructed from an enqueue timestamp, or a
        recovery window around a respawn).  ``t_start`` is an absolute
        ``time.perf_counter()`` reading; the aggregate node at ``path``
        accumulates it like a normal span entry."""
        node = self.root
        for name in path:
            node = node.child(name)
        node.seconds += duration
        node.count += 1
        if counters:
            for k, v in counters.items():
                node.add_counter(k, v)
        if trace_id is None:
            trace_id = _TRACE_CTX
        self._push(node, t_start - self.t_origin, duration, trace_id)

    def link_trace(self, child: str, parent: str) -> None:
        """Declare that trace ``child`` was carried out inside trace
        ``parent`` (a request solved within a coalesced batch).  The
        stitcher follows these links so a request's trace includes the
        batch's solve spans and per-rank phase split."""
        self.trace_links[child] = parent

    # --------------------------------------------------------- reporting

    def aggregates(self) -> list[dict]:
        """Flattened span tree in depth-first order, root excluded."""
        return [
            {
                "path": node.path,
                "name": node.name,
                "depth": node.depth,
                "seconds": node.seconds,
                "count": node.count,
                "counters": dict(node.counters),
            }
            for node in itertools.islice(self.root.walk(), 1, None)
        ]

    def _event_records(self, last: int | None = None) -> Iterator[dict]:
        """One ``event`` record per ring entry, oldest first; with
        ``last``, only the newest ``last`` entries.  ``trace`` is
        present only on events recorded inside a trace context."""
        events = self.events
        if last is not None:  # ``[-0:]`` would be the whole ring
            events = list(events)
            events = events[max(len(events) - last, 0):]
        for node, t0, dt, trace in events:
            rec = {
                "type": "event",
                "path": node.path,
                "t_start": t0,
                "duration": dt,
            }
            if trace is not None:
                rec["trace"] = trace
            yield rec

    def _link_records(self) -> list[dict]:
        """One ``trace_link`` record per :meth:`link_trace` call."""
        return [
            {"type": "trace_link", "trace": child, "parent": parent}
            for child, parent in self.trace_links.items()
        ]

    def dump_jsonl(self, path: str, *, extra_records=()) -> int:
        """Write the trace as JSON lines: one ``meta`` record, one
        ``span`` record per aggregate node, one ``event`` record per
        recorded interval, one ``trace_link`` record per link, plus any
        ``extra_records`` (e.g. per-rank timeline spans).  Returns the
        number of lines written."""
        meta = {
            "type": "meta",
            "dropped_events": self.dropped_events,
            "pid": os.getpid(),
        }
        # streamed: a full ring is never held as records all at once
        records = itertools.chain(
            [meta],
            ({"type": "span", **agg} for agg in self.aggregates()),
            self._event_records(),
            self._link_records(),
            extra_records,
        )
        with open(path, "w") as f:
            for n, rec in enumerate(records, 1):
                f.write(json.dumps(rec) + "\n")
        return n


#: the active tracer; ``None`` means telemetry is disabled and every
#: hot-path call short-circuits on this single reference
_tracer: Tracer | None = None


def enabled() -> bool:
    return _tracer is not None


def enable(*, max_events: int = 65536, fresh: bool = True) -> Tracer:
    """Turn telemetry on; returns the active tracer.  ``fresh`` starts
    a new trace (the default); ``fresh=False`` keeps an existing one."""
    global _tracer
    if _tracer is None or fresh:
        _tracer = Tracer(max_events=max_events)
    return _tracer


def disable() -> None:
    global _tracer
    _tracer = None


def current_tracer() -> Tracer | None:
    return _tracer


def span(name: str, **attrs):
    """Open a tracing span (``with span("stiffness"): ...``).

    Disabled: returns the no-op singleton — call with a literal name
    and no kwargs on hot paths so no argument dict is built."""
    tr = _tracer
    if tr is None:
        return _NULL_SPAN
    return tr.span(name, attrs or None)


def no_span(name: str, **attrs):
    """:func:`span`'s stand-in for code that must not trace — a rank
    program runs in the caller's process, whose tracer it must leave
    alone: always the no-op singleton."""
    return _NULL_SPAN


def add(counter: str, value) -> None:
    """Accumulate ``value`` into ``counter`` on the innermost open
    span.  No-op (one ``is None`` test) when telemetry is disabled."""
    tr = _tracer
    if tr is not None:
        tr.add(counter, value)


def annotate(path: tuple[str, ...], counter: str, value) -> None:
    """Post-hoc counter attribution to a span path (see
    :meth:`Tracer.annotate`); no-op when disabled."""
    tr = _tracer
    if tr is not None:
        tr.annotate(path, counter, value)


# environment opt-in: REPRO_TELEMETRY=1 enables tracing at import
if os.environ.get("REPRO_TELEMETRY", "").strip().lower() in (
    "1",
    "true",
    "on",
    "yes",
):
    enable()
