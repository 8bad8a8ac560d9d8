"""``repro.service`` — long-running simulation service (see DESIGN.md).

Turns the one-shot library into an always-on engine where a repeat
scenario run is a cache hit plus one batched column:

* :mod:`~repro.service.cache` — content-addressed artifact store
  (stable spec hashing, in-memory LRU + CRC-verified disk tier);
* :mod:`~repro.service.engine` — warm :class:`Engine` owning the
  constructed simulations and persistent :class:`ProcWorld` pools;
* :mod:`~repro.service.scheduler` — :class:`CoalescingScheduler`, a
  keyed async job queue that packs co-batchable requests into one
  fused ``run_batch`` time loop (each column bitwise-identical to a
  solo run); every request dispatches as soon as the engine is free,
  and ``submit_many`` hands over an already-collected list as one
  batch;
* :mod:`~repro.service.policy` — :class:`ServicePolicy` resilience
  knobs (admission control, deadlines, poisoned-batch bisection,
  retry + circuit breaker) and the structured errors
  (:class:`ShedError`, :class:`DeadlineExceeded`,
  :class:`PoisonedRequestError`, :class:`CircuitOpenError`) callers
  program against;
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
    CircuitBreaker,
    CircuitOpenError,
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
    "CircuitBreaker",
    "CircuitOpenError",
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
