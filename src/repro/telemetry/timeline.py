"""Per-rank timelines of the distributed time loop.

Each SPMD rank records, per step, how long it spent in each phase of
the bulk-synchronous schedule — interface matvec, boundary sends,
interior matvec (the work the exchange hides behind), receive/wait,
and the local update.  The record is a dense ``(nsteps, 5)`` float
array: two doubles of bookkeeping per phase per step, cheap enough to
keep on while measuring, and compact enough to ship through the
existing result-gather path (the worker result dicts of
``ProcWorld.run_spmd``).

:class:`MergedTimeline` combines the per-rank streams into the views
the paper's measurement tables need: comm/compute overlap, the
interface-vs-interior split, and per-step load imbalance.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PHASES", "RankTimeline", "MergedTimeline"]

#: the five phases of one distributed time step, in schedule order
PHASES = ("interface", "send", "interior", "recv", "update")
#: phases that are computation (the rest is communication/wait)
COMPUTE_PHASES = (0, 2, 4)
COMM_PHASES = (1, 3)


class RankTimeline:
    """One rank's per-step phase durations (seconds)."""

    def __init__(self, rank: int, nsteps: int, durations=None,
                 trace_id: str | None = None):
        self.rank = int(rank)
        self.nsteps = int(nsteps)
        # the request trace this run served, if any — set from the
        # trace context piggybacked on the transport's run message so
        # per-rank phases stitch into the request's end-to-end trace
        self.trace_id = trace_id
        if durations is None:
            self.durations = np.zeros((self.nsteps, len(PHASES)))
        else:
            durations = np.asarray(durations, dtype=float)
            if durations.shape != (self.nsteps, len(PHASES)):
                raise ValueError(
                    f"timeline must be ({self.nsteps}, {len(PHASES)}), "
                    f"got {durations.shape}"
                )
            self.durations = durations

    def record(self, step: int, phase: int, seconds: float) -> None:
        self.durations[step, phase] += seconds

    # ------------------------------------------------------------ views

    def phase_totals(self) -> dict[str, float]:
        tot = self.durations.sum(axis=0)
        return {name: float(tot[i]) for i, name in enumerate(PHASES)}

    @property
    def compute_seconds(self) -> float:
        return float(self.durations[:, COMPUTE_PHASES].sum())

    @property
    def comm_seconds(self) -> float:
        return float(self.durations[:, COMM_PHASES].sum())

    def interface_fraction(self) -> float:
        """Interface share of the stiffness work (phase seconds)."""
        iface = float(self.durations[:, 0].sum())
        interior = float(self.durations[:, 2].sum())
        denom = iface + interior
        return iface / denom if denom > 0 else 0.0

    def to_payload(self) -> dict:
        payload = {
            "rank": self.rank,
            "nsteps": self.nsteps,
            "durations": self.durations,
        }
        if self.trace_id is not None:
            payload["trace"] = self.trace_id
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "RankTimeline":
        return cls(
            payload["rank"],
            payload["nsteps"],
            payload["durations"],
            trace_id=payload.get("trace"),
        )

    def span_records(self) -> list[dict]:
        """JSONL-able span records: sequential intervals per step, in
        schedule order, on a per-rank clock starting at 0."""
        out = []
        t = 0.0
        for k in range(self.nsteps):
            for i, name in enumerate(PHASES):
                dt = float(self.durations[k, i])
                rec = {
                    "type": "rank_span",
                    "rank": self.rank,
                    "step": k,
                    "phase": name,
                    "t_start": t,
                    "duration": dt,
                }
                if self.trace_id is not None:
                    rec["trace"] = self.trace_id
                out.append(rec)
                t += dt
        return out


class MergedTimeline:
    """All ranks' timelines of one distributed run, merged."""

    def __init__(self, ranks: list[RankTimeline]):
        if not ranks:
            raise ValueError("need at least one rank timeline")
        nsteps = {r.nsteps for r in ranks}
        if len(nsteps) != 1:
            raise ValueError(f"rank timelines disagree on nsteps: {nsteps}")
        self.ranks = sorted(ranks, key=lambda r: r.rank)
        self.nsteps = self.ranks[0].nsteps
        self.nranks = len(self.ranks)

    def per_step_compute(self) -> np.ndarray:
        """``(nsteps, nranks)`` compute seconds per step per rank."""
        return np.stack(
            [r.durations[:, COMPUTE_PHASES].sum(axis=1) for r in self.ranks],
            axis=1,
        )

    def step_imbalance(self) -> np.ndarray:
        """Per-step load imbalance ``(max - min) / mean`` of the ranks'
        compute time (0 = perfectly balanced)."""
        c = self.per_step_compute()
        mean = c.mean(axis=1)
        spread = c.max(axis=1) - c.min(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(mean > 0, spread / np.maximum(mean, 1e-300), 0.0)
        return out

    def overlap_ratio(self) -> float:
        """Fraction of communication time hidden behind interior
        compute: ``min(interior, comm) / comm`` summed over ranks —
        1.0 means the exchange was fully overlapped."""
        hidden = 0.0
        comm = 0.0
        for r in self.ranks:
            interior = float(r.durations[:, 2].sum())
            c = r.comm_seconds
            hidden += min(interior, c)
            comm += c
        return hidden / comm if comm > 0 else 1.0

    def summary(self) -> dict:
        imb = self.step_imbalance()
        return {
            "nranks": self.nranks,
            "nsteps": self.nsteps,
            "phases": list(PHASES),
            "per_rank": [
                {
                    "rank": r.rank,
                    "compute_seconds": r.compute_seconds,
                    "comm_seconds": r.comm_seconds,
                    "interface_fraction": r.interface_fraction(),
                    **{
                        f"{name}_seconds": v
                        for name, v in r.phase_totals().items()
                    },
                }
                for r in self.ranks
            ],
            "mean_step_imbalance": float(imb.mean()) if len(imb) else 0.0,
            "max_step_imbalance": float(imb.max()) if len(imb) else 0.0,
            "overlap_ratio": self.overlap_ratio(),
        }

    def span_records(self) -> list[dict]:
        out = []
        for r in self.ranks:
            out.extend(r.span_records())
        return out
