"""Deterministic fault injection for the resilience test matrix.

A :class:`FaultPlan` is a small, picklable list of :class:`FaultSpec`
entries that the solvers and the process transport consult at
well-defined points of the SPMD loop.  Because every fault is keyed on
``(kind, rank, step, attempt)`` the injected failures are *exactly*
reproducible — the recovery tests assert bit-identical results against
unfaulted runs, which only makes sense when the fault fires at the same
instruction every time.

Kinds
-----
``kill``
    The worker process exits hard (``os._exit``) at the top of the
    given step — a node crash.  The master detects the dead rank via
    pipe EOF / liveness polling and recovers from the last collective
    checkpoint.
``delay``
    Sleep ``seconds`` before the step's channel sends — a slow NIC or a
    descheduled core.  With a ``hang_timeout`` configured the master
    declares the rank hung; without one the run just stretches.
``drop``
    Swallow this step's channel sends — the peers' receives time out
    and surface as rank errors.
``corrupt``
    Flip a byte of the payload *after* the channel CRC is computed —
    the receiver's CRC check raises
    :class:`~repro.parallel.transport.TransportCorruption`.
``nan``
    Poison one entry of the state array after the step's update — the
    numerical health sentinel turns it into a structured
    :class:`~repro.resilience.health.NumericalHealthError`.

Spec grammar (``REPRO_FAULTS`` environment variable or
:meth:`FaultPlan.parse`)::

    spec    := fault (";" fault)*
    fault   := kind ":" key "=" value ("," key "=" value)*
    kind    := "kill" | "delay" | "drop" | "corrupt" | "nan"
    key     := "rank" | "step" | "attempt" | "seconds" | "dest"

e.g. ``REPRO_FAULTS="kill:rank=1,step=40;corrupt:rank=0,step=3,attempt=1"``.
``rank`` defaults to 0, ``attempt`` to 0 (so a recovered retry does not
re-fire the fault), ``dest`` to any peer.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry

KINDS = ("kill", "delay", "drop", "corrupt", "nan")

#: process exit code used by injected kills (distinguishable from
#: normal worker exits in the master's failure report)
KILL_EXIT_CODE = 173


@dataclass
class FaultSpec:
    """One scheduled fault: fires when the plan's ``attempt`` matches
    and the executing rank reaches ``step``."""

    kind: str
    rank: int = 0
    step: int = 0
    attempt: int = 0
    seconds: float = 0.1  # delay duration
    dest: int | None = None  # restrict drop/corrupt/delay to one peer

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        self.rank = int(self.rank)
        self.step = int(self.step)
        self.attempt = int(self.attempt)
        self.seconds = float(self.seconds)
        if self.dest is not None:
            self.dest = int(self.dest)


class FaultPlan:
    """A deterministic set of faults, consulted from the solver loops
    and the transport.  Picklable: the master builds it, workers
    receive a copy in their payload.  ``attempt`` is bumped by the
    recovery loop before each retry so one-shot faults stay one-shot.
    """

    def __init__(self, specs=(), *, attempt: int = 0):
        self.specs = [
            s if isinstance(s, FaultSpec) else FaultSpec(**s) for s in specs
        ]
        self.attempt = int(attempt)
        self.fired: list[tuple] = []  # worker-local injection log

    # ------------------------------------------------------- construction

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        specs = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, argstr = part.partition(":")
            kind = kind.strip()
            kwargs = {}
            for pair in argstr.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, eq, value = pair.partition("=")
                if not eq:
                    raise ValueError(
                        f"malformed fault argument {pair!r} in {part!r} "
                        "(expected key=value)"
                    )
                key = key.strip()
                if key in ("rank", "step", "attempt", "dest"):
                    kwargs[key] = int(value)
                elif key == "seconds":
                    kwargs[key] = float(value)
                else:
                    raise ValueError(
                        f"unknown fault key {key!r} in {part!r}"
                    )
            specs.append(FaultSpec(kind=kind, **kwargs))
        return cls(specs)

    @classmethod
    def from_env(cls, env: str = "REPRO_FAULTS") -> "FaultPlan | None":
        """Plan from the environment, or None when unset/empty."""
        spec = os.environ.get(env, "").strip()
        return cls.parse(spec) if spec else None

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __getstate__(self):
        return {"specs": self.specs, "attempt": self.attempt}

    def __setstate__(self, state):
        self.specs = state["specs"]
        self.attempt = state["attempt"]
        self.fired = []

    def retried(self) -> "FaultPlan":
        """A copy for the next recovery attempt (``attempt + 1``):
        faults scheduled for earlier attempts will not re-fire."""
        return FaultPlan(self.specs, attempt=self.attempt + 1)

    # --------------------------------------------------------- injection

    def _match(self, kind: str, rank: int, step: int):
        for s in self.specs:
            if (
                s.kind == kind
                and s.rank == rank
                and s.step == step
                and s.attempt == self.attempt
            ):
                return s
        return None

    def _record(self, kind: str, rank: int, step: int) -> None:
        self.fired.append((kind, rank, step, self.attempt))
        telemetry.count("resilience.faults_injected")

    def on_step_begin(self, rank: int, step: int) -> None:
        """Solver-loop hook at the top of step ``step``: executes a
        scheduled ``kill`` (hard process exit) for this rank."""
        s = self._match("kill", rank, step)
        if s is not None:
            self._record("kill", rank, step)
            os._exit(KILL_EXIT_CODE)

    def poison_state(self, rank: int, step: int, state: np.ndarray) -> None:
        """Solver-loop hook after the step's update: a scheduled
        ``nan`` fault poisons one entry of the freshly computed state
        (in place)."""
        s = self._match("nan", rank, step)
        if s is not None:
            self._record("nan", rank, step)
            state.reshape(-1)[0] = np.nan

    def send_action(self, rank: int, step: int, dest: int) -> str | None:
        """Transport hook before a channel send from ``rank`` to
        ``dest`` at ``step``: returns ``None`` (send normally),
        ``"drop"`` (swallow the message) or ``"corrupt"`` (flip a
        payload byte after the CRC).  A scheduled ``delay`` sleeps here
        and then sends normally."""
        s = self._match("delay", rank, step)
        if s is not None and (s.dest is None or s.dest == dest):
            self._record("delay", rank, step)
            time.sleep(s.seconds)
        for kind in ("drop", "corrupt"):
            s = self._match(kind, rank, step)
            if s is not None and (s.dest is None or s.dest == dest):
                self._record(kind, rank, step)
                return kind
        return None
