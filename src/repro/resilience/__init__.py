"""``repro.resilience`` — fault tolerance for long forward/inverse runs.

The paper's headline runs hold thousands of processors for hours — a
regime where node failure is routine and checkpoint/restart is table
stakes.  This package supplies the three pieces the solvers and the
process transport build on:

* **health guards** (:mod:`~repro.resilience.health`) — NaN/Inf
  sentinels, CFL re-validation, and the structured
  :class:`NumericalHealthError` they raise;
* **fault injection** (:mod:`~repro.resilience.faults`) — the
  deterministic :class:`FaultPlan` harness (``REPRO_FAULTS`` spec) the
  recovery tests drive every failure path with;
* **retry policy** (:mod:`~repro.resilience.recovery`) — bounded
  exponential backoff for the respawn-and-rewind loop.

The durable checkpoint format itself lives with the solvers
(:mod:`repro.solver.checkpoint`), the failure detection with the
transport (:mod:`repro.parallel.transport`).
"""

from repro.resilience.faults import KILL_EXIT_CODE, FaultPlan, FaultSpec
from repro.resilience.health import (
    DEFAULT_HEALTH_INTERVAL,
    NumericalHealthError,
    check_finite,
    sync_check_due,
    validate_cfl,
)
from repro.resilience.recovery import RetryPolicy

__all__ = [
    "DEFAULT_HEALTH_INTERVAL",
    "FaultPlan",
    "FaultSpec",
    "KILL_EXIT_CODE",
    "NumericalHealthError",
    "RetryPolicy",
    "check_finite",
    "sync_check_due",
    "validate_cfl",
]
