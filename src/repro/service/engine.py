"""Warm simulation engine: constructed solvers.

The engine is the stateful middle of the service: it owns an
:class:`~repro.service.cache.ArtifactCache` of constructed
:class:`~repro.core.simulation.ForwardSimulation` instances (octree,
mesh, constraints, assembled operators, scatter plans — everything a
rupture does *not* change), so successive :meth:`submit` calls skip
straight to the time loop.  Every request runs the serial solver.

A request names its basin with a :class:`SimulationSpec` — a frozen
description whose :attr:`SimulationSpec.key` is the content address
used throughout the service.  Two requests with bitwise-equal specs
share one constructed simulation; any perturbed field (a material
array entry, ``fmax``, the dtype) produces a different key and a
fresh build.  Warm runs are bit-identical to cold runs: the cache
stores the *constructed operators*, and the solver time loop is
deterministic given those operators and the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import telemetry
from repro.service.cache import ArtifactCache, artifact_key

__all__ = ["SimulationSpec", "Engine"]


@dataclass(frozen=True)
class SimulationSpec:
    """Everything that determines the expensive immutables of a basin.

    Mirrors the :class:`~repro.core.simulation.ForwardSimulation`
    constructor; :attr:`key` is the stable content hash of every field
    (including the material model's arrays), so a cache entry can never
    be served across a change that would alter the constructed
    operators.  The key also hashes the literal ``backend="numpy"``:
    dropping it would move every content address, and with them the
    disk-tier artifacts already written.
    """

    material: object
    L: float
    fmax: float
    box_frac: tuple = (1.0, 1.0, 1.0)
    points_per_wavelength: float = 10.0
    max_level: int = 7
    h_min: float = 0.0
    damping_ratio: float = 0.0
    damping_band: tuple | None = None
    stacey_c1: bool = True
    cfl_safety: float = 0.5
    lts: int = 0
    dtype: str = "float64"

    @property
    def key(self) -> str:
        """Content address of this spec (hex digest)."""
        return artifact_key(
            kind="forward_simulation",
            material=self.material,
            L=float(self.L),
            fmax=float(self.fmax),
            box_frac=tuple(float(b) for b in self.box_frac),
            points_per_wavelength=float(self.points_per_wavelength),
            max_level=int(self.max_level),
            h_min=float(self.h_min),
            damping_ratio=float(self.damping_ratio),
            damping_band=None
            if self.damping_band is None
            else tuple(float(b) for b in self.damping_band),
            stacey_c1=bool(self.stacey_c1),
            cfl_safety=float(self.cfl_safety),
            lts=int(self.lts),
            backend="numpy",
            dtype=str(self.dtype),
        )

    def build(self):
        """Construct the simulation this spec describes (the expensive
        cold path the cache amortizes)."""
        from repro.core.simulation import ForwardSimulation

        return ForwardSimulation(
            self.material,
            L=self.L,
            fmax=self.fmax,
            box_frac=self.box_frac,
            points_per_wavelength=self.points_per_wavelength,
            max_level=self.max_level,
            h_min=self.h_min,
            damping_ratio=self.damping_ratio,
            damping_band=self.damping_band,
            stacey_c1=self.stacey_c1,
            cfl_safety=self.cfl_safety,
            lts=self.lts,
        )


class Engine:
    """Long-running simulation engine with warm state.

    Parameters
    ----------
    capacity:
        Memory-tier LRU slots for constructed simulations.
    disk_dir:
        Optional on-disk artifact tier (CRC-verified, atomic).
    cache:
        Pass a prebuilt :class:`ArtifactCache` to share one across
        engines (overrides ``capacity``/``disk_dir``).
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan` injected
        into every solver loop this engine runs — the chaos-testing
        hook ``repro serve`` arms from ``REPRO_FAULTS``.  Mutable:
        the serve loop swaps in ``plan.retried()`` between drain
        passes so one-shot faults fire exactly once.
    """

    def __init__(
        self,
        *,
        capacity: int = 4,
        disk_dir: str | None = None,
        cache: ArtifactCache | None = None,
        faults=None,
    ):
        self.cache = cache or ArtifactCache(capacity, disk_dir=disk_dir)
        self.submitted = 0
        self.faults = faults

    # ------------------------------------------------------ warm state

    def simulation(self, spec: SimulationSpec):
        """The constructed simulation for ``spec`` — a cache hit after
        the first call (or a disk load on a fresh process when the
        engine has a disk tier)."""
        return self.cache.get_or_build(spec.key, spec.build)

    # ------------------------------------------------------ submission

    def submit(
        self,
        spec: SimulationSpec,
        scenario,
        t_end: float,
        *,
        receivers: np.ndarray | None = None,
        record: str = "velocity",
        trace_id: str | None = None,
        **run_kwargs,
    ):
        """One forward run against warm state; returns the
        :class:`~repro.core.simulation.ForwardResult`.  Identical
        dispatch to ``ForwardSimulation.run`` — a warm submit differs
        from a cold library call only in skipping construction, so the
        trajectory is bitwise the same.  ``trace_id`` scopes the run's
        spans to that trace."""
        sim = self.simulation(spec)
        self.submitted += 1
        telemetry.count("service.submits")
        if self.faults is not None:
            run_kwargs.setdefault("faults", self.faults)
        with telemetry.trace_context(
            trace_id if trace_id is not None
            else telemetry.get_trace_context()
        ):
            with telemetry.span("service.run"):
                return sim.run(
                    scenario,
                    t_end,
                    receivers=receivers,
                    record=record,
                    **run_kwargs,
                )

    def submit_batch(
        self,
        spec: SimulationSpec,
        scenarios: Sequence,
        t_end: float,
        *,
        receivers=None,
        record: str = "velocity",
        health_interval: int | None = None,
    ) -> list:
        """March ``B = len(scenarios)`` rupture scenarios of one basin
        in a single fused :meth:`~repro.solver.wave_solver
        .ElasticWaveSolver.run_batch` loop; returns one
        :class:`~repro.io.seismogram.Seismograms` per scenario (None
        without receivers).  ``receivers`` is one shared ``(n, 3)``
        position array or a sequence with one entry per scenario.
        Column ``b`` is bit-identical to ``submit(spec,
        scenarios[b], t_end)`` — the coalescing contract the scheduler
        builds on."""
        from repro.io.seismogram import ReceiverArray
        from repro.sources.fault import SourceCollection

        sim = self.simulation(spec)
        self.submitted += len(scenarios)
        telemetry.count("service.submits", len(scenarios))
        forces = [
            SourceCollection(sim.mesh, sim.tree, sc.sources)
            for sc in scenarios
        ]
        if receivers is None:
            recs = None
        elif isinstance(receivers, np.ndarray) and receivers.ndim == 2:
            recs = ReceiverArray(sim.mesh, receivers)
        else:
            if len(receivers) != len(scenarios):
                raise ValueError("need one receiver set per scenario")
            recs = [ReceiverArray(sim.mesh, r) for r in receivers]
        extra = {}
        if self.faults is not None:
            extra["faults"] = self.faults
        if health_interval is not None:
            extra["health_interval"] = health_interval
        with telemetry.span("service.run_batch") as _s:
            _s.add("batch", len(scenarios))
            return sim.solver.run_batch(
                forces, t_end, receivers=recs, record=record, **extra
            )

    # -------------------------------------------------------- lifetime

    def stats(self) -> dict:
        s = self.cache.stats()
        s["submitted"] = self.submitted
        return s

    def close(self) -> None:
        """Park point between traffic bursts (idempotent).  The engine
        holds no processes, so there is nothing to release; the
        artifact cache is untouched and the engine stays usable."""

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
