"""Machine model: from measured work/traffic to Table 2.1 columns.

The explicit solver is bulk-synchronous: every time step each rank (1)
applies its local element operator, (2) exchanges interface partial
sums with its neighbors.  Rank time per step is

    ``t_r = flops_r / rate + neighbors_r * alpha + bytes_r / beta``

and the step time is ``max_r t_r`` (the barrier).  Sustained aggregate
flop rate is ``total_flops / step_time``; parallel efficiency is the
per-PE rate relative to the single-processor rate — exactly how the
paper's Table 2.1 defines it ("degradation in Mflops/PE relative to a
single processor").

:data:`ALPHASERVER_ES45` calibrates the three constants to PSC's
LeMieux: 505 Mflop/s sustained per EV68 processor (the paper's measured
single-PE figure, 25% of the 2 Gflop/s peak) and Quadrics QsNet-like
latency/bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mesh.hexmesh import HexMesh
from repro.mesh.partition import rcb_partition
from repro.parallel.decomposition import (
    per_step_profile,
    rank_partitions,
    step_flops,
)


@dataclass(frozen=True)
class MachineModel:
    """Four-parameter cluster model.

    ``sync_per_hop`` models the per-step synchronization/contention
    cost of the bulk-synchronous update, growing as ``log2(P)`` — on
    LeMieux this absorbs NIC sharing among the 4 processors of each
    ES45 node and barrier skew, which the paper's own numbers show to
    be scale- rather than granularity-driven (its 512- and 1024-PE rows
    have *larger* grains than the 16-PE row yet lower efficiency).
    """

    name: str
    flop_rate: float  # sustained flop/s per processor
    latency: float  # seconds per message (alpha)
    bandwidth: float  # bytes/s per link (beta)
    sync_per_hop: float = 0.0  # seconds per log2(P) per step

    def rank_step_time(
        self, flops: int, neighbors: int, bytes_: int, nranks: int = 1
    ) -> float:
        hops = np.log2(nranks) if nranks > 1 else 0.0
        return (
            flops / self.flop_rate
            + neighbors * self.latency
            + bytes_ / self.bandwidth
            + hops * self.sync_per_hop
        )


#: PSC LeMieux: HP AlphaServer ES45 (EV68 @ 1 GHz, 2 Gflop/s peak, the
#: paper sustains 505 Mflop/s on one PE — 25% of peak) with a Quadrics
#: interconnect.  ``sync_per_hop`` is calibrated so the 3000-PE
#: Northridge row lands at the paper's 80% efficiency; every other row
#: is then a prediction.
ALPHASERVER_ES45 = MachineModel(
    name="AlphaServer ES45 / Quadrics",
    flop_rate=505e6,
    latency=6.0e-6,
    bandwidth=250e6,
    sync_per_hop=2.8e-3,
)


def machine_from_measurements(
    measurement: dict,
    *,
    flop_rate: float,
    name: str = "measured shared-memory transport",
    sync_per_hop: float = 0.0,
) -> MachineModel:
    """Build a :class:`MachineModel` whose ``alpha``/``beta`` come from
    a real transport instead of hardware datasheets.

    ``measurement`` is the dict returned by
    :func:`repro.parallel.transport.measure_transport` — a ping-pong
    fit of one-way time ``t(n) = alpha + n / beta`` over the process
    transport's shared-memory channels.  ``flop_rate`` is the sustained
    per-process rate measured on the actual element kernel (time a
    serial matvec for it).  The result plugs into
    :func:`predict_scalability`, so the same Table 2.1 machinery that
    models LeMieux also predicts *this machine's* strong scaling;
    ``perfbench``'s ``dist_2rank`` workload reports the measured side
    (``parallel.alpha_s`` / ``beta_gbps`` / ``efficiency``).
    """
    return MachineModel(
        name=name,
        flop_rate=float(flop_rate),
        latency=float(measurement["alpha"]),
        bandwidth=float(measurement["beta"]),
        sync_per_hop=sync_per_hop,
    )


@dataclass
class ScalabilityRow:
    """One row of the Table 2.1 reproduction."""

    pes: int
    model: str
    grid_pts: int
    pts_per_pe: int
    gflops: float
    mflops_per_pe: float
    efficiency: float
    step_seconds: float

    def as_tuple(self):
        return (
            self.pes,
            self.model,
            self.grid_pts,
            self.pts_per_pe,
            self.gflops,
            self.mflops_per_pe,
            self.efficiency,
        )


def predict_scalability(
    mesh: HexMesh,
    pes: int,
    *,
    machine: MachineModel = ALPHASERVER_ES45,
    model_name: str = "",
    baseline_rate: float | None = None,
) -> ScalabilityRow:
    """Partition ``mesh`` onto ``pes`` ranks and model one solver step.

    The partition, per-rank flop counts and interface byte volumes are
    computed exactly from the mesh; only the time conversion uses the
    machine model.  ``baseline_rate`` (flop/s per PE at P=1) defaults to
    the machine's sustained rate, which the model reproduces exactly at
    P=1 (no communication).
    """
    parts = (
        rcb_partition(mesh.elem_centers, pes)
        if pes > 1
        else np.zeros(mesh.nelem, dtype=np.int64)
    )
    profile = per_step_profile(rank_partitions(mesh, parts, pes))
    times = [
        machine.rank_step_time(p["flops"], p["neighbors"], p["bytes"], pes)
        for p in profile
    ]
    step = max(times)
    total_flops = sum(p["flops"] for p in profile)
    rate = total_flops / step  # aggregate flop/s
    per_pe = rate / pes
    base = baseline_rate if baseline_rate is not None else machine.flop_rate
    return ScalabilityRow(
        pes=pes,
        model=model_name,
        grid_pts=mesh.nnode,
        pts_per_pe=mesh.nnode // pes,
        gflops=rate / 1e9,
        mflops_per_pe=per_pe / 1e6,
        efficiency=per_pe / base,
        step_seconds=step,
    )


def fit_interface_constant(
    mesh: HexMesh, pe_counts: Sequence[int]
) -> float:
    """Fit the RCB surface-to-volume law on *measured* partitions.

    For an interior RCB part with ``g`` grid points the interface size
    follows ``n_shared ~ c * g^(2/3)``; this measures ``c`` from real
    partitions of ``mesh`` (max over ranks, the rank that sets the
    barrier).  The Table 2.1 benchmark uses the fitted ``c`` to build
    granularity-matched rank profiles at the paper's grain sizes.
    """
    cs = []
    for p in pe_counts:
        if p < 2:
            continue
        parts = rcb_partition(mesh.elem_centers, p)
        prof = per_step_profile(rank_partitions(mesh, parts, p))
        worst = max(prof, key=lambda q: q["bytes"])
        g = worst["nodes"]
        shared = worst["bytes"] / 24.0  # 3 doubles per shared point
        cs.append(shared / g ** (2.0 / 3.0))
    if not cs:
        raise ValueError("need at least one multi-rank partition")
    return float(np.median(cs))


def predict_paper_row(
    pts_per_pe: int,
    pes: int,
    *,
    machine: MachineModel = ALPHASERVER_ES45,
    c_interface: float,
    elems_per_point: float = 0.8,
    neighbors: int = 26,
    model_name: str = "",
) -> ScalabilityRow:
    """Model one Table 2.1 row from its granularity.

    Builds the interior-rank cost profile analytically — elements from
    the grain size, costed by the real partitions' formula
    (:func:`~repro.parallel.decomposition.step_flops`), interface
    points from the *measured* RCB surface law ``c_interface`` — and
    converts with the machine model.  This is
    how the paper-scale rows (up to 102M points on 3000 PEs) are
    reproduced without holding a 100M-point mesh in a numpy prototype;
    the law itself is validated against real partitions in
    :func:`fit_interface_constant`.
    """
    nelem = int(pts_per_pe * elems_per_point)
    flops = step_flops(nelem, pts_per_pe)
    shared = c_interface * pts_per_pe ** (2.0 / 3.0)
    bytes_ = int(shared * 24)
    step = machine.rank_step_time(flops, neighbors, bytes_, pes)
    rate_pe = flops / step
    base = machine.flop_rate
    return ScalabilityRow(
        pes=pes,
        model=model_name,
        grid_pts=pts_per_pe * pes,
        pts_per_pe=pts_per_pe,
        gflops=rate_pe * pes / 1e9,
        mflops_per_pe=rate_pe / 1e6,
        efficiency=rate_pe / base,
        step_seconds=step,
    )


def format_table(rows: list[ScalabilityRow]) -> str:
    """Render rows in the layout of the paper's Table 2.1."""
    header = (
        f"{'PEs':>5} {'model':>8} {'grid pts':>12} {'pts/PE':>10} "
        f"{'Gflop/s':>9} {'Mflop/PE':>9} {'efficiency':>10}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.pes:>5} {r.model:>8} {r.grid_pts:>12,} {r.pts_per_pe:>10,} "
            f"{r.gflops:>9.3f} {r.mflops_per_pe:>9.0f} {r.efficiency:>10.3f}"
        )
    return "\n".join(lines)
