"""Named metrics: counters, gauges, histograms, and per-step series.

The :class:`MetricsRegistry` is the single sink for run-level numbers
that are not wall time: flop counts by category, residual norms per CG
iteration, CFL margins, allocation watermarks.  It absorbs the two
pre-telemetry fragments — :class:`repro.util.flops.FlopCounter` is now
a back-compat shim over :class:`CategoryCounter`, and the per-peer
traffic matrix of :class:`repro.parallel.simcomm.TrafficStats` feeds
the registry's report path — so "where did the work go" has one answer.

Samples are gated the same way spans are: :func:`repro.telemetry.
sample` is a no-op while telemetry is disabled, so per-step sampling
costs one ``is None`` test on the hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "CategoryCounter",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Series",
]


@dataclass
class CategoryCounter:
    """Accumulates an extensive quantity by category (the superset of
    the old ``util.flops.FlopCounter`` surface, kept verbatim so the
    shim is a subclass with nothing to do)."""

    counts: dict = field(default_factory=dict)

    def add(self, category: str, amount: int) -> None:
        self.counts[category] = self.counts.get(category, 0) + int(amount)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def merge(self, other: "CategoryCounter") -> None:
        for k, v in other.counts.items():
            self.add(k, v)


class Counter:
    """Monotonic scalar total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount) -> None:
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (plus the extremes seen)."""

    __slots__ = ("name", "value", "min", "max", "n")

    def __init__(self, name: str):
        self.name = name
        self.value = None
        self.min = math.inf
        self.max = -math.inf
        self.n = 0

    def set(self, value) -> None:
        value = float(value)
        self.value = value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.n += 1

    def as_dict(self) -> dict:
        return {
            "type": "gauge",
            "value": self.value,
            "min": None if self.n == 0 else self.min,
            "max": None if self.n == 0 else self.max,
            "n": self.n,
        }


class Histogram:
    """Streaming moments + extremes + quantiles.

    Up to :data:`EXACT_CAP` samples are kept verbatim, so service-scale
    populations (thousands of request latencies) get *exact* p50/p95/
    p99.  Past the cap the kept samples stop growing and observations
    fall into log2 magnitude buckets (one per binary exponent — bounded
    memory for any value range), from which quantiles are interpolated
    geometrically; worst-case error is the bucket width (~2x), which is
    the right trade for a metric that only feeds dashboards."""

    EXACT_CAP = 4096

    __slots__ = ("name", "n", "sum", "sumsq", "min", "max",
                 "samples", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.n = 0
        self.sum = 0.0
        self.sumsq = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples: list[float] = []
        self.buckets: dict[int, int] | None = None

    def observe(self, value) -> None:
        value = float(value)
        self.n += 1
        self.sum += value
        self.sumsq += value * value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if self.buckets is None:
            self.samples.append(value)
            if len(self.samples) > self.EXACT_CAP:
                # spill everything kept so far into buckets and stop
                # holding raw samples
                self.buckets = {}
                for v in self.samples:
                    b = self._bucket(v)
                    self.buckets[b] = self.buckets.get(b, 0) + 1
                self.samples = []
        else:
            b = self._bucket(value)
            self.buckets[b] = self.buckets.get(b, 0) + 1

    @staticmethod
    def _bucket(value: float) -> int:
        # binary exponent of |value|; 0 and subnormal-small map to a
        # sentinel floor bucket
        a = abs(value)
        if a < 1e-300:
            return -1024
        return math.frexp(a)[1]

    @property
    def mean(self) -> float:
        return self.sum / self.n if self.n else 0.0

    @property
    def std(self) -> float:
        if self.n < 2:
            return 0.0
        var = max(self.sumsq / self.n - self.mean**2, 0.0)
        return math.sqrt(var)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) of everything observed —
        exact (linear interpolation between order statistics) while
        under :data:`EXACT_CAP` samples, bucket-interpolated beyond."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.n == 0:
            return 0.0
        if self.buckets is None:
            xs = sorted(self.samples)
            pos = q * (len(xs) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(xs) - 1)
            frac = pos - lo
            return xs[lo] * (1.0 - frac) + xs[hi] * frac
        # bucketed: walk cumulative counts, interpolate inside the
        # bucket geometrically between its bounds [2^(e-1), 2^e), and
        # clamp to the exact extremes (still tracked past the cap)
        target = q * self.n
        acc = 0
        for e in sorted(self.buckets):
            cnt = self.buckets[e]
            if acc + cnt >= target:
                if e == -1024:
                    return 0.0
                lo_edge = math.ldexp(1.0, e - 1)
                hi_edge = math.ldexp(1.0, e)
                frac = (target - acc) / cnt
                est = lo_edge + frac * (hi_edge - lo_edge)
                return min(max(est, self.min), self.max)
            acc += cnt
        return self.max

    def as_dict(self) -> dict:
        d = {
            "type": "histogram",
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "min": None if self.n == 0 else self.min,
            "max": None if self.n == 0 else self.max,
        }
        if self.n:
            d["p50"] = self.quantile(0.50)
            d["p95"] = self.quantile(0.95)
            d["p99"] = self.quantile(0.99)
        return d


class Series:
    """Ordered ``(step, value)`` samples — convergence histories,
    per-step residual norms, allocation watermarks."""

    __slots__ = ("name", "steps", "values")

    def __init__(self, name: str):
        self.name = name
        self.steps: list = []
        self.values: list[float] = []

    def append(self, value, step=None) -> None:
        self.steps.append(len(self.steps) if step is None else step)
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    def as_dict(self) -> dict:
        return {
            "type": "series",
            "steps": list(self.steps),
            "values": list(self.values),
        }


class MetricsRegistry:
    """Find-or-create registry of named metrics."""

    def __init__(self):
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, cls):
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = cls(name)
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} is a {type(m).__name__}, "
                f"not a {cls.__name__}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def series(self, name: str) -> Series:
        return self._get(name, Series)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def reset(self) -> None:
        self._metrics.clear()

    def as_dict(self) -> dict:
        return {
            name: m.as_dict() for name, m in sorted(self._metrics.items())
        }
