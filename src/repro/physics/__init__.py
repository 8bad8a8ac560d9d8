"""Continuum physics: elastic moduli, absorbing boundaries, stability.

Implements the model of paper Section 2.1 — Navier's equation of linear
elastodynamics with longitudinal velocity ``vp = sqrt((lambda+2mu)/rho)``
and shear velocity ``vs = sqrt(mu/rho)`` — plus Stacey's local absorbing
boundary condition and the CFL-limited explicit time step.
"""

from repro.physics.elastic import (
    lame_from_velocities,
    velocities_from_lame,
)
from repro.physics.stacey import StaceyBoundary, stacey_coefficients
from repro.physics.cfl import elem_stable_dt, stable_timestep, validate_cfl

__all__ = [
    "lame_from_velocities",
    "velocities_from_lame",
    "StaceyBoundary",
    "stacey_coefficients",
    "stable_timestep",
    "elem_stable_dt",
    "validate_cfl",
]
