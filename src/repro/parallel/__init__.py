"""Parallel execution (paper Section 2.4; see DESIGN.md).

The paper's scalability numbers come from 3000 AlphaServer processors
on a Quadrics network.  We reproduce the *algorithmic* side exactly —
element partitions, per-rank work, interface exchange volumes.  The
partition is plain data (:func:`rank_partitions`: mesh + element-to-rank
map, no transport, no material), costed per step by
:func:`per_step_profile`.  The solver runs on it behind a pluggable
point-to-point transport: the same SPMD rank programs, with the one
halo exchange, run over an in-process simulated MPI
(:class:`SimWorld`, one core, measured traffic) or over persistent
worker processes with shared-memory channels (:class:`ProcWorld`, N
real cores, comm/compute overlap).  There are two domain-sharded
schedules — one interface exchange per global step, as in the paper,
and clustered local time stepping, which exchanges at the interface
rate.  The two transports produce bit-identical trajectories and
identical traffic statistics; the
measured work/communication converts to wall time with an alpha-beta
machine model (:class:`MachineModel`) calibrated either to LeMieux
(:data:`ALPHASERVER_ES45`) or to the local transport
(:func:`measure_transport` + :func:`machine_from_measurements`).
"""

from repro.parallel.simcomm import SimWorld, SimComm, TrafficStats
from repro.parallel.transport import (
    ProcWorld,
    TransportCorruption,
    WorkerFailure,
    measure_transport,
)
from repro.parallel.decomposition import per_step_profile, rank_partitions
from repro.parallel.dist_solver import DistributedWaveSolver
from repro.parallel.perfmodel import (
    MachineModel,
    ALPHASERVER_ES45,
    ScalabilityRow,
    machine_from_measurements,
    predict_scalability,
)

__all__ = [
    "SimWorld",
    "SimComm",
    "TrafficStats",
    "ProcWorld",
    "TransportCorruption",
    "WorkerFailure",
    "measure_transport",
    "rank_partitions",
    "per_step_profile",
    "DistributedWaveSolver",
    "MachineModel",
    "ALPHASERVER_ES45",
    "ScalabilityRow",
    "machine_from_measurements",
    "predict_scalability",
]
