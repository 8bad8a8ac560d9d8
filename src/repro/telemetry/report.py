"""Paper-style performance report (the shape of Table 2.1).

The paper's headline table reports, per run: per-phase wall time,
sustained Mflop/s per PE, communication volume, and parallel
efficiency.  :class:`PerfReport` renders exactly those quantities from
whatever instrumentation the run produced — span aggregates (phase
seconds + attached flop counters), the per-rank-pair traffic matrix of
:class:`repro.parallel.simcomm.TrafficStats`, and a merged per-rank
timeline — both as a plain dict (for JSON) and as aligned text (for
humans and the golden test).

Column mapping to the paper (see DESIGN.md, "Observability"):

==================  =================================================
report column        Table 2.1 quantity
==================  =================================================
``seconds``          per-phase wall time
``Mflop/s``          sustained flop rate (counted flops / wall time)
``msgs`` ``bytes``   communication volume per rank pair
``efficiency``       parallel efficiency vs the 1-rank baseline
==================  =================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PerfReport"]


def _fmt(x: float, width: int = 10, prec: int = 3) -> str:
    if x is None:
        return " " * (width - 1) + "-"
    return f"{x:{width}.{prec}f}"


@dataclass
class PerfReport:
    """Assembled performance report.

    Parameters
    ----------
    phases:
        ``[{"path", "depth", "seconds", "count", "flops"}]`` rows in
        display order (typically a tracer's depth-first aggregates).
    traffic:
        ``{(src, dst): (messages, bytes)}`` rank-pair matrix.
    timeline:
        Optional :meth:`repro.telemetry.timeline.MergedTimeline.
        summary` dict.
    baseline_seconds / parallel_seconds / nranks:
        When all given, parallel efficiency is
        ``baseline / (nranks * parallel)``.
    metrics:
        Optional registry snapshot (``MetricsRegistry.as_dict()``).
    lts:
        Optional local-time-stepping summary: an
        :meth:`repro.solver.lts.LTSPlan.as_dict` dict (histogram,
        theoretical speedup), optionally extended with an
        ``achieved_speedup`` measured against a global-dt run.
    service:
        Optional simulation-service summary: merge of
        :meth:`repro.service.Engine.stats` (artifact-cache hit/miss,
        bytes, build seconds) and
        :meth:`repro.service.CoalescingScheduler.stats` (requests,
        batches, mean coalesced width).
    title:
        Heading of the text rendering.
    """

    phases: list = field(default_factory=list)
    traffic: dict = field(default_factory=dict)
    timeline: dict | None = None
    baseline_seconds: float | None = None
    parallel_seconds: float | None = None
    nranks: int | None = None
    metrics: dict = field(default_factory=dict)
    lts: dict | None = None
    service: dict | None = None
    title: str = "Performance report"

    # ------------------------------------------------------ construction

    @classmethod
    def collect(
        cls,
        *,
        tracer=None,
        world=None,
        timeline=None,
        flops=None,
        baseline_seconds=None,
        parallel_seconds=None,
        nranks=None,
        metrics=None,
        lts=None,
        service=None,
        title="Performance report",
    ) -> "PerfReport":
        """Build a report from live instrumentation objects.

        ``tracer`` is a :class:`repro.telemetry.spans.Tracer` (or None),
        ``world`` a SimWorld/ProcWorld whose per-rank
        :class:`TrafficStats` carry the peer matrix, ``timeline`` a
        :class:`~repro.telemetry.timeline.MergedTimeline`, ``flops`` an
        extra :class:`~repro.telemetry.metrics.CategoryCounter` to
        report as pseudo-phases (e.g. a serial solver's counter when
        no spans attributed them).
        """
        phases = []
        if tracer is not None:
            for agg in tracer.aggregates():
                phases.append(
                    {
                        "path": agg["path"],
                        "name": agg["name"],
                        "depth": agg["depth"],
                        "seconds": agg["seconds"],
                        "count": agg["count"],
                        "flops": agg["counters"].get("flops"),
                    }
                )
        if flops is not None:
            for cat, n in sorted(flops.counts.items()):
                phases.append(
                    {
                        "path": f"flops/{cat}",
                        "name": cat,
                        "depth": 0,
                        "seconds": None,
                        "count": None,
                        "flops": n,
                    }
                )
        traffic = {}
        if world is not None:
            for st in world.stats:
                for (src, dst), (m, b) in st.peers.items():
                    pm, pb = traffic.get((src, dst), (0, 0))
                    traffic[(src, dst)] = (pm + m, pb + b)
            if nranks is None:
                nranks = world.nranks
        return cls(
            phases=phases,
            traffic=traffic,
            timeline=(
                timeline.summary()
                if timeline is not None and hasattr(timeline, "summary")
                else timeline
            ),
            baseline_seconds=baseline_seconds,
            parallel_seconds=parallel_seconds,
            nranks=nranks,
            metrics=dict(metrics.as_dict()) if metrics is not None else {},
            lts=dict(lts) if lts is not None else None,
            service=dict(service) if service is not None else None,
            title=title,
        )

    # --------------------------------------------------------- quantities

    @property
    def efficiency(self) -> float | None:
        """Parallel efficiency ``T_1 / (P * T_P)`` (Table 2.1's last
        column), when the three inputs are known."""
        if (
            self.baseline_seconds is None
            or self.parallel_seconds is None
            or not self.nranks
            or self.parallel_seconds <= 0
        ):
            return None
        return self.baseline_seconds / (self.nranks * self.parallel_seconds)

    def total_traffic(self) -> tuple[int, int]:
        m = sum(v[0] for v in self.traffic.values())
        b = sum(v[1] for v in self.traffic.values())
        return m, b

    # --------------------------------------------------------- rendering

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "phases": [dict(p) for p in self.phases],
            "traffic": {
                f"{src}->{dst}": {"messages": m, "bytes": b}
                for (src, dst), (m, b) in sorted(self.traffic.items())
            },
            "timeline": self.timeline,
            "baseline_seconds": self.baseline_seconds,
            "parallel_seconds": self.parallel_seconds,
            "nranks": self.nranks,
            "efficiency": self.efficiency,
            "metrics": self.metrics,
            "lts": self.lts,
            "service": self.service,
        }

    def as_text(self) -> str:
        lines = [self.title, "=" * len(self.title)]
        if self.phases:
            lines.append("")
            lines.append(
                f"{'phase':<36} {'seconds':>10} {'calls':>8} "
                f"{'Mflop':>12} {'Mflop/s':>10}"
            )
            lines.append("-" * 80)
            for p in self.phases:
                name = "  " * max(p.get("depth", 0), 0) + p["name"]
                secs = p.get("seconds")
                fl = p.get("flops")
                mflop = None if fl is None else fl / 1e6
                rate = (
                    mflop / secs
                    if (mflop is not None and secs and secs > 0)
                    else None
                )
                count = p.get("count")
                lines.append(
                    f"{name:<36} {_fmt(secs)} "
                    f"{'-' if count is None else count:>8} "
                    f"{_fmt(mflop, 12, 2)} {_fmt(rate, 10, 1)}"
                )
        if self.traffic:
            lines.append("")
            lines.append("rank-pair traffic")
            lines.append(f"{'src->dst':<12} {'messages':>10} {'bytes':>14}")
            lines.append("-" * 38)
            for (src, dst), (m, b) in sorted(self.traffic.items()):
                lines.append(f"{f'{src} -> {dst}':<12} {m:>10} {b:>14}")
            tm, tb = self.total_traffic()
            lines.append(f"{'total':<12} {tm:>10} {tb:>14}")
        if self.timeline:
            lines.append("")
            lines.append(
                f"per-rank timeline ({self.timeline.get('nsteps', '?')} "
                "steps)"
            )
            lines.append(
                f"{'rank':>4} {'compute_s':>10} {'comm_s':>10} "
                f"{'iface_frac':>10}"
            )
            lines.append("-" * 38)
            for row in self.timeline.get("per_rank", []):
                lines.append(
                    f"{row['rank']:>4} {_fmt(row['compute_seconds'])} "
                    f"{_fmt(row['comm_seconds'])} "
                    f"{_fmt(row['interface_fraction'], 10, 3)}"
                )
            lines.append(
                "mean step imbalance "
                f"{self.timeline.get('mean_step_imbalance', 0.0):.3f}   "
                "overlap ratio "
                f"{self.timeline.get('overlap_ratio', 0.0):.3f}"
            )
        if self.lts:
            lines.append("")
            hist = self.lts.get("histogram", {})
            pairs = ", ".join(
                f"{r}x: {n}"
                for r, n in sorted(hist.items(), key=lambda kv: int(kv[0]))
            )
            lines.append(f"local time stepping  (clusters {pairs})")
            theo = self.lts.get("theoretical_speedup")
            ach = self.lts.get("achieved_speedup")
            lines.append(
                f"  speedup: theoretical {_fmt(theo, 7, 2)}x"
                + (f"   achieved {_fmt(ach, 7, 2)}x" if ach is not None
                   else "")
            )
        if self.service:
            lines.append("")
            sv = self.service
            hits, misses = sv.get("hits", 0), sv.get("misses", 0)
            total = hits + misses
            lines.append("simulation service")
            lines.append(
                f"  artifact cache: {hits}/{total} hits "
                f"({100.0 * hits / total if total else 0.0:.0f}%), "
                f"{sv.get('entries', 0)} live entries, "
                f"build time saved "
                f"{_fmt(sv.get('build_seconds'), 6, 2)}s/build"
            )
            drain = sv.get("drain")
            if drain:
                dh, dm = drain.get("hits", 0), drain.get("misses", 0)
                dt = dh + dm
                lines.append(
                    f"  this drain: {dh}/{dt} hits "
                    f"({100.0 * dh / dt if dt else 0.0:.0f}%), "
                    f"build {_fmt(drain.get('build_seconds'), 6, 2)}s"
                )
            if sv.get("requests"):
                lines.append(
                    f"  coalescing: {sv['requests']} requests in "
                    f"{sv.get('batches', 0)} batches "
                    f"(mean width {_fmt(sv.get('mean_batch'), 5, 2)}, "
                    f"max {sv.get('max_batch_observed', 1)})"
                )
            # robustness: only rendered when the policy machinery
            # actually intervened, so clean drains read as before
            rb = {
                k: sv.get(k, 0)
                for k in (
                    "shed",
                    "deadline_expired",
                    "poisoned",
                    "retries",
                    "bisections",
                    "quarantined",
                )
            }
            breaker = sv.get("breaker", "disabled")
            if any(rb.values()) or breaker not in ("disabled", "closed"):
                lines.append(
                    f"  robustness: shed {rb['shed']}, "
                    f"expired {rb['deadline_expired']}, "
                    f"poisoned {rb['poisoned']} "
                    f"({rb['bisections']} bisect rounds), "
                    f"retries {rb['retries']}, "
                    f"quarantined {rb['quarantined']}, "
                    f"breaker {breaker}"
                )
        lat = {
            name: m
            for name, m in self.metrics.items()
            if name.startswith("service.latency.")
            and m.get("type") == "histogram"
            and m.get("n")
        }
        if lat:
            lines.append("")
            lines.append("service latency quantiles (seconds)")
            lines.append(
                f"{'stage':<12} {'n':>6} {'p50':>10} {'p95':>10} "
                f"{'p99':>10} {'max':>10}"
            )
            lines.append("-" * 62)
            for name, m in sorted(lat.items()):
                stage = name[len("service.latency."):]
                lines.append(
                    f"{stage:<12} {m['n']:>6} {_fmt(m.get('p50'))} "
                    f"{_fmt(m.get('p95'))} {_fmt(m.get('p99'))} "
                    f"{_fmt(m.get('max'))}"
                )
        dropped = self.metrics.get("telemetry.events.dropped")
        if dropped and dropped.get("value"):
            lines.append("")
            lines.append(
                f"telemetry: {dropped['value']} span events evicted "
                "from the ring buffer (raise max_events for full "
                "traces)"
            )
        if self.efficiency is not None:
            lines.append("")
            lines.append(
                f"parallel efficiency vs 1-rank baseline: "
                f"{self.efficiency:.3f}  (P={self.nranks}, "
                f"T1={self.baseline_seconds:.3f}s, "
                f"TP={self.parallel_seconds:.3f}s)"
            )
        return "\n".join(lines)
