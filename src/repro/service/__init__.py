"""``repro.service`` — long-running simulation service (see DESIGN.md).

Turns the one-shot library into an always-on engine where a repeat
scenario run is a cache hit plus one batched column:

* :mod:`~repro.service.cache` — content-addressed artifact store
  (stable spec hashing, in-memory LRU + CRC-verified disk tier);
* :mod:`~repro.service.engine` — warm :class:`Engine` owning the
  constructed simulations;
* :mod:`~repro.service.scheduler` — :class:`CoalescingScheduler`,
  which solves a caller's requests in the caller's thread, packing
  co-batchable ones into one fused ``run_batch`` time loop (each
  column bitwise-identical to a solo run);
* :mod:`~repro.service.policy` — :class:`ServicePolicy` resilience
  knobs (admission control, deadlines, poisoned-batch bisection) and
  the structured errors (:class:`ShedError`, :class:`DeadlineExceeded`,
  :class:`PoisonedRequestError`) callers program against;
* :mod:`~repro.service.spool` — :class:`Spool`, the crash-safe
  directory protocol between ``repro submit`` and ``repro serve``;
* :mod:`~repro.service.server` — :func:`serve`, the drain loop that
  feeds a spool through the scheduler (the spool is its batching
  queue).
"""

from repro.service.cache import (
    ArtifactCache,
    CacheCorruptError,
    artifact_key,
    fingerprint,
    load_artifact,
    save_artifact,
)
from repro.service.engine import Engine, SimulationSpec
from repro.service.policy import (
    DeadlineExceeded,
    PoisonedRequestError,
    ServicePolicy,
    ShedError,
)
from repro.service.scheduler import CoalescingScheduler, ForwardRequest
from repro.service.server import ServeStats, serve
from repro.service.spool import Spool

__all__ = [
    "ArtifactCache",
    "CacheCorruptError",
    "CoalescingScheduler",
    "DeadlineExceeded",
    "Engine",
    "ForwardRequest",
    "PoisonedRequestError",
    "ServeStats",
    "ServicePolicy",
    "ShedError",
    "SimulationSpec",
    "Spool",
    "artifact_key",
    "fingerprint",
    "load_artifact",
    "save_artifact",
    "serve",
]
