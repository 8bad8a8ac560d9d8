"""One-call forward earthquake simulation.

Wires the full paper pipeline: wavelength-adaptive octree (h = vs /
(N_lambda f_max)), 2-to-1 balancing, hexahedral mesh extraction with
hanging-node constraints, material sampling, explicit solve with Stacey
boundaries and optional Rayleigh attenuation, receivers and snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.io.seismogram import ReceiverArray, Seismograms
from repro.io.snapshots import SnapshotRecorder
from repro.mesh.hanging import HangingNodeInfo, build_constraints
from repro.mesh.hexmesh import HexMesh, extract_mesh, wavelength_target
from repro.octree.balance import balance_octree
from repro.octree.linear_octree import LinearOctree, build_adaptive_octree
from repro.solver.wave_solver import ElasticWaveSolver
from repro.sources.fault import SourceCollection


@dataclass
class ForwardResult:
    """Everything a forward run produces."""

    seismograms: Seismograms | None
    snapshots: SnapshotRecorder | None
    mesh: HexMesh
    tree: LinearOctree
    solver: ElasticWaveSolver
    nsteps: int

    @property
    def n_elements(self) -> int:
        return self.mesh.nelem


class ForwardSimulation:
    """Basin-scale forward earthquake modeling.

    Parameters
    ----------
    material:
        Material model with ``query(points_m) -> (vs, vp, rho)``.
    L:
        Physical edge of the root cube (meters).
    fmax:
        Highest resolved frequency (Hz); drives the octree refinement.
    box_frac:
        Meshed box as fractions of the cube (power-of-two denominators),
        e.g. ``(1, 1, 3/8)`` for an 80 x 80 x 30 km basin in an 80 km
        cube.
    points_per_wavelength:
        ``N_lambda`` (paper: 10).
    max_level / h_min:
        Caps on refinement (``h_min`` in meters) for scaled-down runs.
    damping_ratio / damping_band:
        Rayleigh attenuation target and fit band.
    stacey_c1:
        Full Stacey condition (vs. Lysmer-only damping).

    Examples
    --------
    >>> from repro.materials import SyntheticBasinModel
    >>> from repro.sources import idealized_northridge
    >>> sim = ForwardSimulation(SyntheticBasinModel(L=8000.0, depth=4000.0,
    ...                         vs_min=400.0), L=8000.0, fmax=0.5,
    ...                         box_frac=(1, 1, 0.5), max_level=5)
    >>> # result = sim.run(idealized_northridge(L=8000.0), t_end=10.0)
    """

    def __init__(
        self,
        material,
        *,
        L: float,
        fmax: float,
        box_frac: Sequence[float] = (1.0, 1.0, 1.0),
        points_per_wavelength: float = 10.0,
        max_level: int = 7,
        h_min: float = 0.0,
        damping_ratio: float = 0.0,
        damping_band: tuple[float, float] | None = None,
        stacey_c1: bool = True,
        cfl_safety: float = 0.5,
    ):
        self.material = material
        self.L = float(L)
        self.fmax = float(fmax)
        self.box_frac = tuple(box_frac)

        target = wavelength_target(
            lambda pts: material.query(pts)[0],
            L=self.L,
            fmax=self.fmax,
            points_per_wavelength=points_per_wavelength,
            h_min=h_min,
        )
        tree = build_adaptive_octree(
            target, max_level=max_level, box_frac=self.box_frac
        )
        self.tree = balance_octree(tree)
        self.mesh = extract_mesh(self.tree, L=self.L, box_frac=self.box_frac)
        self.constraints = build_constraints(self.tree, self.mesh)
        band = damping_band or (0.1 * self.fmax, self.fmax)
        self.solver = ElasticWaveSolver(
            self.mesh,
            self.tree,
            material,
            damping_ratio=damping_ratio,
            damping_band=band,
            stacey_c1=stacey_c1,
            cfl_safety=cfl_safety,
            constraints=self.constraints,
        )

    @property
    def dt(self) -> float:
        return self.solver.dt

    def mesh_summary(self) -> dict:
        """Mesh statistics in the shape the paper reports."""
        levels, counts = np.unique(self.mesh.elem_level, return_counts=True)
        return {
            "elements": self.mesh.nelem,
            "grid_points": self.mesh.nnode,
            "hanging_points": self.constraints.n_hanging,
            "levels": dict(zip(levels.tolist(), counts.tolist())),
            "h_min_m": float(self.mesh.elem_h.min()),
            "h_max_m": float(self.mesh.elem_h.max()),
            "dt_s": self.dt,
        }

    def uniform_equivalent_grid_points(self) -> int:
        """Grid points a uniform mesh at the finest h would need — the
        paper's ~2000x multiresolution savings headline."""
        hmin = int(self.mesh.elem_size.min())
        from repro.octree.morton import MAX_COORD

        per_axis = [int(b) // hmin + 1 for b in self.mesh.box_ticks]
        return int(np.prod([float(p) for p in per_axis]))

    def run(
        self,
        scenario,
        t_end: float,
        *,
        receivers: np.ndarray | None = None,
        snapshot_every: int = 0,
        record: str = "velocity",
        checkpoint=None,
        resume: bool = False,
        health_interval: int | None = None,
        lts: int | bool = 0,
        faults=None,
    ) -> ForwardResult:
        """Simulate a rupture scenario.

        ``scenario`` is a :class:`FiniteFaultScenario` (or anything with
        ``.sources``); ``receivers`` are surface positions (meters).
        ``checkpoint`` (a :class:`~repro.solver.checkpoint
        .CheckpointManager`) enables durable snapshots; ``resume=True``
        restarts from the latest valid one, bit-identical to an
        uninterrupted run.  ``lts`` turns on clustered local time
        stepping (``0``/``False`` = off, ``True`` = on with the default
        rate cap, an int = the cap); see :mod:`repro.solver.lts`.
        """
        forces = SourceCollection(self.mesh, self.tree, scenario.sources)
        rec = (
            ReceiverArray(self.mesh, receivers)
            if receivers is not None
            else None
        )
        snaps = None
        if snapshot_every > 0:
            surf = self.mesh.surface_nodes(2, 0)
            snaps = SnapshotRecorder(surf, every=snapshot_every)
        extra = {}
        if health_interval is not None:
            extra["health_interval"] = health_interval
        if faults is not None:
            extra["faults"] = faults
        seis = self.solver.run(
            forces,
            t_end,
            receivers=rec,
            snapshots=snaps,
            record=record,
            checkpoint=checkpoint,
            resume=resume,
            lts=lts,
            **extra,
        )
        return ForwardResult(
            seismograms=seis,
            snapshots=snaps,
            mesh=self.mesh,
            tree=self.tree,
            solver=self.solver,
            # the count the solver marched (LTS rounds it up to a sync)
            nsteps=self.solver.schedule(lts, t_end)[1],
        )
