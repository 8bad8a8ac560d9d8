"""Numerical health guards for the time loops and the optimizer.

An explicit wave solver that goes unstable does not crash — it silently
propagates ``inf``/``NaN`` garbage for the rest of the run (hours, at
the paper's scale).  The guards here turn that failure mode into a
structured, attributable error:

* :func:`check_finite` — NaN/Inf sentinel for state arrays, called by
  the time loops' march frame (:mod:`repro.solver.frame`) on the
  :func:`sync_check_due` cadence (amortized: one ``np.isfinite``
  reduction per ``health_interval`` steps, nothing per step);
* :func:`validate_cfl` — re-validates the time step against the CFL
  bound at run start, catching a ``dt`` that was computed for a
  different mesh or material (the implementation lives with the CFL
  math in :mod:`repro.physics.cfl`, which caches the per-element
  ratios and names the limiting element; re-exported here so the
  resilience-facing import path keeps working);
* :class:`NumericalHealthError` — carries the step, rank, and field
  name, so a distributed failure report says *where* the run went bad.

Violations are counted in ``repro.telemetry`` under
``resilience.health_violations``.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry

#: default state-check cadence for the solver time loops; one finite
#: reduction every this many steps keeps the hot-loop cost amortized
#: under the <=2% overhead gate
DEFAULT_HEALTH_INTERVAL = 32


class NumericalHealthError(RuntimeError):
    """A state array stopped being finite (or a stability precondition
    failed).  ``step``/``rank``/``field`` say where."""

    def __init__(self, detail: str, *, step: int | None = None,
                 rank: int | None = None, field: str | None = None):
        at = []
        if field is not None:
            at.append(f"field {field!r}")
        if step is not None:
            at.append(f"step {step}")
        if rank is not None:
            at.append(f"rank {rank}")
        suffix = f" ({', '.join(at)})" if at else ""
        super().__init__(detail + suffix)
        self.step = step
        self.rank = rank
        self.field = field


def check_finite(arr: np.ndarray, *, step: int | None = None,
                 rank: int | None = None, field: str = "u") -> None:
    """Raise :class:`NumericalHealthError` if ``arr`` contains a
    non-finite entry.  One vectorized reduction — callers amortize it
    over ``health_interval`` steps."""
    if np.isfinite(np.sum(arr)):
        return
    # slow path: the run is already lost, spend the pass to say where
    bad = int(np.count_nonzero(~np.isfinite(arr)))
    telemetry.count("resilience.health_violations")
    err = NumericalHealthError(
        f"non-finite state: {bad} NaN/Inf entries", step=step, rank=rank,
        field=field,
    )
    # black box before unwinding: the flight recorder (if armed) gets
    # the last-N span events + metric snapshot at the failure point
    telemetry.flight_dump(f"numerical_health: {err}")
    raise err


def sync_check_due(
    s: int, last: int, nsteps: int, interval: int | None
) -> bool:
    """Sentinel cadence at schedule boundary ``s`` (steps completed):
    due when a multiple of ``interval`` was reached since the last
    checked boundary ``last`` — the rule the checkpoints use — plus
    always at the end, so late-run corruption cannot escape the guard.
    On an every-step schedule that is every ``interval`` steps; a
    clustered one, which sees only its sync boundaries, checks at the
    first one after the cadence came due (not every ``lcm(interval,
    coarsest rate)`` steps)."""
    if not interval:
        return False
    return s == nsteps or s // interval > last // interval


from repro.physics.cfl import validate_cfl  # noqa: E402  (re-export)

__all__ = [
    "DEFAULT_HEALTH_INTERVAL",
    "NumericalHealthError",
    "check_finite",
    "sync_check_due",
    "validate_cfl",
]
