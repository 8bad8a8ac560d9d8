"""Fault dislocations as equivalent body forces.

A displacement dislocation of slip ``u0`` in direction ``s`` on a fault
patch of area ``A`` with normal ``n`` in a medium of rigidity ``mu`` is
equivalent to the double-couple moment tensor

    ``M = mu A u0 (s n^T + n s^T)``.

The equivalent body force is ``f = -div(M g(t) delta(x - xs))``; its
Galerkin discretization gives the nodal forces

    ``b_{(i,a)}(t) = sum_b M_ab dN_i/dx_b (xs) g(t)``

evaluated in the element containing the source point (Aki & Richards
Ch. 3; this is the paper's "body forces that equilibrate an induced
displacement dislocation on the fault plane").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.fem.shape import shape_gradients
from repro.mesh.hexmesh import HexMesh
from repro.octree.linear_octree import LinearOctree
from repro.sources.slip import slip_function


def double_couple_moment(
    strike_deg: float, dip_deg: float, rake_deg: float, moment: float
) -> np.ndarray:
    """Moment tensor of a shear dislocation from fault angles.

    Conventions: x = east, y = north, z = **down** (matching the mesh).
    ``moment = mu * A * u0`` (N m).
    """
    st, dp, rk = np.deg2rad([strike_deg, dip_deg, rake_deg])
    # fault normal and slip direction (Aki & Richards 4.88-4.89, adapted
    # to x east / y north / z down)
    n = np.array(
        [np.cos(st) * np.sin(dp), -np.sin(st) * np.sin(dp), -np.cos(dp)]
    )
    s = np.array(
        [
            np.sin(st) * np.cos(rk) - np.cos(st) * np.cos(dp) * np.sin(rk),
            np.cos(st) * np.cos(rk) + np.sin(st) * np.cos(dp) * np.sin(rk),
            -np.sin(dp) * np.sin(rk),
        ]
    )
    return moment * (np.outer(s, n) + np.outer(n, s))


@dataclass
class MomentTensorSource:
    """A point moment-tensor source with the paper's slip function.

    Attributes
    ----------
    position:
        Physical location (meters).
    moment:
        3x3 symmetric moment tensor (N m).
    T / t0:
        Delay time and rise time (seconds) of the dislocation function.
    """

    position: np.ndarray
    moment: np.ndarray
    T: float
    t0: float

    def time_function(self, t):
        return slip_function(t, self.T, self.t0)

    def stencil(self, mesh: HexMesh, tree: LinearOctree):
        return nodal_forces_for_point_source(mesh, tree, self)


@dataclass
class PointForceSource:
    """A single body force ``F(t) e`` at a point (verification against
    the Stokes full-space solution).

    ``time_function`` returns the force magnitude (N); the force is
    distributed to the containing element's nodes by the trilinear
    shape functions.
    """

    position: np.ndarray
    direction: np.ndarray
    time_function: Callable[[np.ndarray], np.ndarray]

    def stencil(self, mesh: HexMesh, tree: LinearOctree):
        from repro.fem.shape import shape_functions
        from repro.octree.morton import MAX_COORD

        ticks = np.asarray(self.position) / mesh.L * MAX_COORD
        idx = tree.locate(np.floor(ticks).astype(np.int64)[None, :])
        e = int(idx[0])
        if e < 0:
            raise ValueError(f"source at {self.position} is outside the mesh")
        h = float(mesh.elem_h[e])
        anchor = mesh.elem_anchor[e] * (mesh.L / MAX_COORD)
        xi = (np.asarray(self.position) - anchor) / h
        N = shape_functions(xi[None, :], 3)[0]  # (8,)
        # consistent nodal load of a delta force: b_i = F N_i(xs)
        d = np.asarray(self.direction, dtype=float)
        d = d / np.linalg.norm(d)
        w = N[:, None] * d[None, :]
        return mesh.conn[e], w


def nodal_forces_for_point_sources(
    mesh: HexMesh, tree: LinearOctree, sources: list
) -> tuple[np.ndarray, np.ndarray]:
    """Spatial stencils of ``n`` moment-tensor sources from one element
    search and one shape-gradient evaluation: ``(nodes, weights)`` of
    shapes ``(n, 8)`` and ``(n, 8, 3)``.

    ``weights[s]`` is the time-independent nodal force pattern of
    source ``s``; its force at time ``t`` is ``weights[s] * g(t)``.
    """
    from repro.octree.morton import MAX_COORD

    pos = np.array([s.position for s in sources], dtype=float).reshape(-1, 3)
    ticks = pos / mesh.L * MAX_COORD
    e = tree.locate(np.floor(ticks).astype(np.int64))
    if np.any(e < 0):
        bad = sources[int(np.argmax(e < 0))]
        raise ValueError(f"source at {bad.position} is outside the mesh")
    h = mesh.elem_h[e][:, None]
    anchor = mesh.elem_anchor[e] * (mesh.L / MAX_COORD)
    g = shape_gradients((pos - anchor) / h, 3) / h[:, :, None]  # physical
    # b[(i,a)] = sum_b M_ab dN_i/dx_b
    M = np.array([s.moment for s in sources], dtype=float).reshape(-1, 3, 3)
    return mesh.conn[e], g @ M.transpose(0, 2, 1)  # w[s, i, a]


def nodal_forces_for_point_source(
    mesh: HexMesh, tree: LinearOctree, src: MomentTensorSource
) -> tuple[np.ndarray, np.ndarray]:
    """Spatial stencil of one point source: ``(nodes, weights)`` of
    shapes ``(8,)`` and ``(8, 3)``."""
    nodes, w = nodal_forces_for_point_sources(mesh, tree, [src])
    return nodes[0], w[0]


class SourceCollection:
    """Set of point sources with a fast combined time evaluation."""

    def __init__(self, mesh: HexMesh, tree: LinearOctree, sources: list):
        self.sources = list(sources)
        slip = [
            i for i, s in enumerate(self.sources)
            if isinstance(s, MomentTensorSource)
        ]
        self._other = [
            (i, s) for i, s in enumerate(self.sources)
            if not isinstance(s, MomentTensorSource)
        ]
        # all moment-tensor sources are located and differentiated in
        # one batch; other source types bring their own stencil
        self.nodes = [None] * len(self.sources)
        self.weights = [None] * len(self.sources)
        for i, n, w in zip(slip, *nodal_forces_for_point_sources(
            mesh, tree, [self.sources[i] for i in slip]
        )):
            self.nodes[i], self.weights[i] = n, w
        for i, s in self._other:
            self.nodes[i], self.weights[i] = s.stencil(mesh, tree)
        self.nnode = mesh.nnode
        # all stencils stacked in source order, so one unbuffered
        # ``np.add.at`` accumulates exactly like a per-source loop
        self._nodes_flat = np.concatenate(
            [np.asarray(n) for n in self.nodes]
        ) if self.sources else np.zeros(0, dtype=np.int64)
        self._weights_flat = np.concatenate(
            [np.asarray(w, dtype=float) for w in self.weights]
        ) if self.sources else np.zeros((0, 3))
        self._row_source = np.repeat(
            np.arange(len(self.sources)), [len(n) for n in self.nodes]
        )
        # sources on the paper's slip function evaluate in one
        # vectorised call over stacked (T, t0); the rest one by one
        self._slip_idx = np.array(slip, dtype=np.int64)
        self._slip_T = np.array([self.sources[i].T for i in slip], float)
        self._slip_t0 = np.array([self.sources[i].t0 for i in slip], float)

    def forces_at(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """Nodal force field ``(nnode, 3)`` at time ``t``."""
        if out is None:
            out = np.zeros((self.nnode, 3))
        else:
            out[:] = 0.0
        g = np.empty(len(self.sources))
        g[self._slip_idx] = slip_function(t, self._slip_T, self._slip_t0)
        for i, s in self._other:
            g[i] = float(s.time_function(t))
        np.add.at(
            out, self._nodes_flat,
            self._weights_flat * g[self._row_source, None],
        )
        return out
