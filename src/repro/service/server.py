"""The drain loop behind ``repro serve``: spool → scheduler → ``.npz``.

The spool is the batching queue.  A pass claims everything pending and
hands it to the scheduler whole (one ``solve`` call), so co-keyed
requests ride one batch that dispatches at once, and what arrives while
a pass solves is claimed together by the next pass and rides the next.
Results are written as the scheduler yields them; the request then
retires to ``done/``, stays in ``inflight/`` for the next attempt, or
is quarantined (:mod:`repro.service.spool` has the directory protocol).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.durable import atomic_write
from repro.materials import SyntheticBasinModel
from repro.service.engine import SimulationSpec
from repro.service.scheduler import CoalescingScheduler, ForwardRequest
from repro.service.spool import Spool
from repro.sources import idealized_northridge, idealized_strike_slip

__all__ = ["ServeStats", "request_from_dict", "serve", "spec_from_dict"]


@dataclass
class ServeStats:
    """What a drain has done so far; :func:`serve` updates it in place
    so a ``publish`` callback can report it live."""

    served: int = 0
    failed: int = 0
    quarantined: int = 0
    #: cache hit ratios of the most recent drain (not engine lifetime)
    drain: dict | None = None
    #: ``(request id, trace id)`` of every served request
    traces: list = field(default_factory=list)


def spec_from_dict(d: dict) -> SimulationSpec:
    """Rebuild the :class:`SimulationSpec` a spool file names.
    Field-for-field deterministic, so two spool files with equal spec
    dicts hash to one artifact key and share a build."""
    return SimulationSpec(
        material=SyntheticBasinModel(
            L=d["L"], depth=d["depth_frac"] * d["L"], vs_min=d["vs_min"]
        ),
        L=d["L"],
        fmax=d["fmax"],
        box_frac=(1, 1, d["depth_frac"]),
        points_per_wavelength=d["ppw"],
        max_level=d["max_level"],
        h_min=d["h_min"],
    )


def request_from_dict(req: dict) -> ForwardRequest:
    """The :class:`ForwardRequest` a spool file's JSON describes."""
    spec = spec_from_dict(req["spec"])
    scenario = (
        idealized_northridge
        if req.get("scenario") == "northridge" else idealized_strike_slip
    )
    return ForwardRequest(
        spec,
        scenario(L=spec.L),
        float(req["t_end"]),
        receivers=(
            np.asarray(req["receivers"], dtype=float)
            if req.get("receivers") else None
        ),
        record=req.get("record", "velocity"),
        request_id=req["id"],
    )


def _give_up(spool, stats, fname, rid, stage, exc, attempts, **extra):
    """Quarantine ``fname`` with a failure report and count it."""
    spool.quarantine(fname, {
        "id": rid,
        "stage": stage,
        "error": str(exc),
        "error_type": type(exc).__name__,
        "attempts": attempts,
        **extra,
    })
    stats.quarantined += 1
    stats.failed += 1
    telemetry.count("service.quarantined")
    print(f"  {rid}: QUARANTINED ({stage}: {exc})")


def _attempt(spool, claimed, out_dir, scheduler, stats) -> bool:
    """One attempt at the ``claimed`` inflight files; True if a failed
    request has attempts left (so the caller should go again)."""
    parsed = []
    for fname in claimed:
        attempts = spool.bump_attempts(fname)
        if attempts > 1:
            telemetry.count("service.replayed")
        try:
            req = spool.load(fname)
            parsed.append((fname, req, request_from_dict(req)))
        except Exception as e:
            # torn/corrupt spool JSON (or a bad spec): unservable no
            # matter how often we retry
            _give_up(spool, stats, fname, fname[: -len(".json")],
                     "parse", e, attempts)
    still_failing = False
    for i, seis, e in scheduler.solve([request for _, _, request in parsed]):
        fname, req, request = parsed[i]
        rid = req["id"]
        if e is not None:  # keep serving the rest
            attempts = spool.attempts(fname)
            if attempts >= scheduler.policy.max_attempts:
                _give_up(spool, stats, fname, rid, "solve", e, attempts,
                         trace_id=request.trace_id)
            else:
                still_failing = True
                print(f"  {rid}: attempt {attempts} failed ({e}); "
                      "will retry")
            continue
        if seis is not None:
            out = os.path.join(out_dir, rid + ".npz")
            atomic_write(out, seis.save, mode="wb")
            print(f"  {rid}: {out}")
        if request.trace_id is not None:
            stats.traces.append((rid, request.trace_id))
        stats.served += 1
        # the result is in place: only now may the request leave the
        # replay journal
        spool.complete(fname)
    return still_failing


def serve(
    spool: Spool, out_dir: str, scheduler: CoalescingScheduler, *,
    watch: bool = False, poll: float = 0.5, publish=None,
    stats: ServeStats | None = None, sleep=None,
) -> ServeStats:
    """Drain ``spool`` through ``scheduler`` into ``out_dir``.

    One pass: claim, then attempt the claimed set until nothing in it
    can still succeed (at most ``scheduler.policy.max_attempts``
    rounds; the engine's one-shot injected faults advance per round,
    as in the solver's own recovery loop).  Without ``watch`` that is
    all (an empty spool is a no-op); with it the loop claims again at
    once after a pass that did work and, after an idle one, waits on
    the spool's doorbell (:meth:`Spool.wait`) for at most ``poll``
    seconds — a submit wakes it, ``poll`` is only the fallback — until
    interrupted.  ``sleep``, if given, stands in for that wait (tests
    pass a fake).  ``publish()`` runs after every pass.
    """
    engine = scheduler.engine
    stats = ServeStats() if stats is None else stats
    spool.recover()
    wait = spool.wait if sleep is None else sleep
    os.makedirs(out_dir, exist_ok=True)
    try:
        while True:
            spool.claim()
            progressed = False
            while claimed := spool.inflight():
                progressed = True
                # per-drain cache scope: hit ratios of THIS drain,
                # not the engine's lifetime totals
                base = engine.cache.counters()
                still_failing = _attempt(
                    spool, claimed, out_dir, scheduler, stats
                )
                stats.drain = engine.cache.stats_since(base)
                if engine.faults is not None:
                    engine.faults = engine.faults.retried()
                if not still_failing:
                    break
            if publish is not None:
                publish()
            if not watch:
                break
            if not progressed:
                wait(poll)
    except KeyboardInterrupt:
        pass
    finally:
        spool.close()
    return stats
