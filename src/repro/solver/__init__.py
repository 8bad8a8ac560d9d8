"""Wave propagation solvers.

:class:`ElasticWaveSolver` is the paper's production code path: explicit
central differences on octree hexahedral meshes with lumped mass,
diagonal/off-diagonal splitting of the damping terms (eq. 2.4), Stacey
absorbing boundaries, Rayleigh attenuation, and the hanging-node
projection ``B^T A B ubar = B^T b`` (eq. 2.5) that keeps the update
explicit.

:class:`TetWaveSolver` is the earlier linear-tetrahedra baseline used
for verification (Figure 2.4).

:class:`RegularGridScalarWave` is the dimension-generic scalar wave
substrate of the inverse problem (2D antiplane and 3D scalar).

:mod:`repro.solver.lts` plans clustered local time stepping — rate-
binned power-of-two step clusters with a 2-to-1 neighbor invariant —
which every solver takes through its ``lts=`` knob.

:class:`~repro.solver.frame.MarchFrame` is what every time loop —
serial or rank program, one level or clustered — does around its
schedule: resume, and poison / health check / checkpoint at its
boundaries.
"""

from repro.solver.wave_solver import ElasticWaveSolver
from repro.solver.tet_solver import TetWaveSolver
from repro.solver.scalarwave import RegularGridScalarWave, batched_forcing
from repro.solver.lts import (
    LTSPlan,
    bin_rates,
    build_lts_plan,
    constraint_groups,
    smooth_rates,
)

__all__ = [
    "ElasticWaveSolver",
    "LTSPlan",
    "TetWaveSolver",
    "RegularGridScalarWave",
    "batched_forcing",
    "bin_rates",
    "build_lts_plan",
    "constraint_groups",
    "smooth_rates",
]
