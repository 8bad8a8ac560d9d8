"""Clustered local time stepping (LTS) for the multiscale octree mesh.

The wavelength-adaptive mesh spans huge element-size (and wave-speed)
ratios, yet a single leapfrog ``dt`` is pinned by the *smallest* stable
element, so stiff/coarse elements step far below their own limit.
Rate-binned LTS groups elements into power-of-two step clusters
``dt_k = 2^k * dt`` and advances each cluster at its own rate: the fine
clusters substep while the coarse ones hold, with time-interpolated
values at cluster boundaries.  On a 2-to-1 balanced octree the binned
rates need only one smoothing pass to inherit the same invariant —
elements sharing a grid point differ by at most one rate level — which
is exactly what makes the interpolation second-order and local.

This module holds the mesh-side planning: per-element rate binning
(:func:`bin_rates`), the 2-to-1 rate smoothing (:func:`smooth_rates`,
with optional equal-rate node groups for hanging-node constraint
closures), and the per-level execution plan (:class:`LTSPlan` /
:func:`build_lts_plan`).  The schedule itself is one loop,
:func:`repro.solver.wave_solver.march_clustered`, which the elastic
solver, its rank programs and the scalar solver all drain with their
own per-level row sets.

Schedule contract (see DESIGN.md):

* One loop over **fine step indices** ``j``; level ``c`` (rate ``r_c``)
  fires when ``j % r_c == 0``, and levels fire **coarsest first**
  within one index.
* When level ``c`` fires at ``j``, its own nodes and every same-or-
  finer-rate neighbor hold the exact state at time ``j*dt``; each
  coarser (rate ``2 r_c``) neighbor is bracketed by its
  ``(x_prev, x_cur)`` pair and is evaluated by linear interpolation
  ``(1-theta) x_prev + theta x_cur`` with
  ``theta = (j mod 2 r_c) / (2 r_c)`` (0 or 1/2) — coarsest-first
  ordering guarantees the bracket exists.
* All nodes are synchronized at multiples of the coarsest rate — the
  only indices where checkpoints are taken (and the only ones a resume
  may start from).

A cluster is a subdomain and its one-coarser / one-finer neighbors a
ghost layer (the paper's own remedy for local work, Section 2.4):
:meth:`LTSPlan.local_layouts` numbers every level compactly — own
nodes first, halo behind — and names, for every halo row, the level
that owns it (:class:`LTSLocalLayout`).  The clustered loop holds
each level's state on that numbering, applies the level's operator to
its own rows, and copies only halo values between levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "HaloSource",
    "LTSLevel",
    "LTSLocalLayout",
    "LTSPlan",
    "bin_rates",
    "build_lts_plan",
    "constraint_groups",
    "node_rates",
    "resolve",
    "smooth_rates",
]

#: default cap on the coarsest-to-finest step ratio; beyond ~32 the
#: remaining work in the coarse clusters is negligible and deeper
#: hierarchies only add interpolation overhead
DEFAULT_MAX_RATE = 32


def bin_rates(elem_dt, *, max_rate: int = DEFAULT_MAX_RATE) -> np.ndarray:
    """Per-element power-of-two step rates from per-element stable
    steps: ``r_e = 2^floor(log2(dt_e / min(dt_e)))``, clipped to
    ``max_rate``.

    Rates are **relative to the minimum** stable step, so element ``e``
    marching at ``r_e * dt`` keeps exactly the safety margin of the
    global-dt run (any common safety factor cancels out of the ratio).
    """
    elem_dt = np.asarray(elem_dt, dtype=float)
    if elem_dt.size == 0:
        raise ValueError("empty mesh")
    max_rate = int(max_rate)
    if max_rate < 1 or (max_rate & (max_rate - 1)):
        raise ValueError(f"max_rate must be a power of two, got {max_rate}")
    ratio = elem_dt / np.min(elem_dt)
    levels = np.floor(np.log2(np.maximum(ratio, 1.0))).astype(np.int64)
    return np.minimum(1 << levels, max_rate)


def _group_min(values: np.ndarray, groups) -> None:
    """Clamp ``values`` to the per-group minimum, in place.  ``groups``
    is a sequence of node-index arrays (disjoint equal-rate closures)."""
    for g in groups:
        values[g] = values[g].min()


def node_rates(conn, rates, nnode: int, *, groups=None) -> np.ndarray:
    """Per-node rates induced by element rates: each grid point steps
    at the rate of its *fastest* (finest) adjacent element, so its
    residual row is complete whenever it updates.  Nodes in an
    equal-rate ``group`` share the group minimum (the hanging-node
    projection couples them into one update)."""
    conn = np.asarray(conn)
    rates = np.asarray(rates)
    nmin = np.full(nnode, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(nmin, conn.ravel(), np.repeat(rates, conn.shape[1]))
    if groups:
        _group_min(nmin, groups)
    return nmin


def smooth_rates(conn, rates, nnode: int, *, groups=None) -> np.ndarray:
    """Enforce the 2-to-1 rate invariant: every element's rate is at
    most twice the rate of any node it touches (equivalently, elements
    sharing a grid point differ by at most one power-of-two level).

    Iterates ``r_e <- min(r_e, 2 * min_n node_rate(n))`` to a fixpoint;
    rates only decrease, so the loop terminates.  ``groups`` (disjoint
    node-index arrays, e.g. hanging-node constraint closures) are
    forced to a common node rate at every sweep, which keeps the
    hanging-node projection block-diagonal across levels."""
    conn = np.asarray(conn)
    rates = np.asarray(rates).copy()
    while True:
        nmin = node_rates(conn, rates, nnode, groups=groups)
        capped = np.minimum(rates, 2 * nmin[conn].min(axis=1))
        if np.array_equal(capped, rates):
            return rates
        rates = capped


@dataclass
class LTSLevel:
    """One rate cluster of the plan.

    ``elems`` holds the cluster's own elements followed by the *halo* —
    rate-``2r`` elements touching a rate-``r`` node, whose rows the
    cluster needs for its residuals (``n_own_elems`` marks the split).
    ``own_nodes`` are the grid points this level updates;
    ``interp_nodes`` the coarser (rate ``2r``) points in the cluster's
    connectivity, read time-interpolated by each matvec; ``fine_nodes``
    the finer (rate ``r/2``) ones, read at their current value.  The
    three are disjoint, each ascending, and together they are every
    node the cluster's elements touch (the 2-to-1 invariant) — the
    level-local numbering of :meth:`LTSPlan.local_layouts` is their
    concatenation.
    """

    rate: int
    elems: np.ndarray
    n_own_elems: int
    own_nodes: np.ndarray
    interp_nodes: np.ndarray
    fine_nodes: np.ndarray


class HaloSource(NamedTuple):
    """Where one group of a level's halo rows comes from: ``rows`` of
    the level-local vector mirror entries ``pos`` of the own-node array
    of ``plan.levels[level]``."""

    level: int
    rows: slice
    pos: np.ndarray


@dataclass
class LTSLocalLayout:
    """Level-local numbering of one cluster.

    ``local_nodes = [own_nodes | interp_nodes | fine_nodes]`` (global
    ids): the leading ``n_own`` rows of a level-local vector *are* the
    cluster's state, the rest is its ghost layer; together they are
    every node the level's elements touch.  ``coarse`` names the
    rate-``2r`` owner of the time-interpolated halo rows, ``fine`` the
    rate-``r/2`` owner of the same-time ones (None where the level has
    no such neighbor)."""

    local_nodes: np.ndarray
    n_own: int
    coarse: HaloSource | None
    fine: HaloSource | None


@dataclass
class LTSPlan:
    """Clustered-leapfrog execution plan for one (mesh, material, dt).

    ``levels`` are ordered **coarsest first** — the firing order inside
    one fine index.  ``trivial`` plans (a single rate-1 cluster) carry
    no speedup; solvers fall back to their global loop, which keeps
    ``lts=on`` bitwise-identical to ``lts=off`` on unclustered models.
    """

    dt: float
    elem_rate: np.ndarray
    node_rate: np.ndarray
    levels: list[LTSLevel] = field(default_factory=list)
    _layouts: list[LTSLocalLayout] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def nelem(self) -> int:
        return len(self.elem_rate)

    @property
    def min_rate(self) -> int:
        return int(self.levels[-1].rate)

    @property
    def max_rate(self) -> int:
        return int(self.levels[0].rate)

    @property
    def trivial(self) -> bool:
        return len(self.levels) == 1 and self.levels[0].rate == 1

    def histogram(self) -> dict[int, int]:
        """Cluster histogram ``{rate: element count}`` (own elements
        only — halo elements are counted at their home rate)."""
        return {int(lv.rate): int(lv.n_own_elems) for lv in self.levels}

    def theoretical_speedup(self) -> float:
        """Element-update work ratio of the global-dt loop over the
        clustered loop: ``nelem / sum_c(|E_c| / r_c)``.  Halo elements
        are charged to every cluster that applies them, so this is the
        honest (overlap-included) bound the benchmark compares against.
        """
        work = sum(len(lv.elems) / lv.rate for lv in self.levels)
        return self.nelem / work

    def local_layouts(self) -> list[LTSLocalLayout]:
        """Level-local layouts, one per level in ``levels`` order.
        Built on first use and kept."""
        if self._layouts is None:
            self._layouts = _local_layouts(self)
        return self._layouts

    def as_dict(self) -> dict:
        return {
            "dt": float(self.dt),
            "levels": len(self.levels),
            "min_rate": self.min_rate,
            "max_rate": self.max_rate,
            "histogram": {str(k): v for k, v in self.histogram().items()},
            "theoretical_speedup": self.theoretical_speedup(),
        }


def build_lts_plan(
    conn,
    nnode: int,
    *,
    dt: float,
    elem_dt=None,
    rates=None,
    max_rate: int = DEFAULT_MAX_RATE,
    groups=None,
) -> LTSPlan:
    """Build the clustered plan from per-element stable steps.

    Either ``elem_dt`` (per-element stable steps, binned and smoothed
    here) or pre-smoothed ``rates`` (the distributed solver bins
    globally, clamps rank boundaries, and hands each rank its slice)
    must be given.  ``groups`` are disjoint node-index arrays forced to
    a common rate (hanging-node constraint closures).
    """
    conn = np.asarray(conn)
    if rates is None:
        if elem_dt is None:
            raise ValueError("need elem_dt or rates")
        rates = smooth_rates(
            conn, bin_rates(elem_dt, max_rate=max_rate), nnode, groups=groups
        )
    else:
        rates = np.asarray(rates)
    nrate = node_rates(conn, rates, nnode, groups=groups)

    levels = []
    for r in sorted(np.unique(rates).tolist(), reverse=True):
        own = np.nonzero(rates == r)[0]
        # halo: one-coarser elements whose rows the r-rate nodes need
        halo_mask = (rates == 2 * r) & (nrate[conn] == r).any(axis=1)
        elems = np.concatenate([own, np.nonzero(halo_mask)[0]])
        enodes = np.unique(conn[elems])
        erate = nrate[enodes]
        lv = LTSLevel(
            rate=int(r),
            elems=elems,
            n_own_elems=len(own),
            own_nodes=enodes[erate == r],
            interp_nodes=enodes[erate == 2 * r],
            fine_nodes=enodes[2 * erate == r],
        )
        # 2-to-1: a cluster reads its own, one-coarser and one-finer
        # points and nothing else
        assert (
            len(lv.own_nodes) + len(lv.interp_nodes) + len(lv.fine_nodes)
            == len(enodes)
        )
        levels.append(lv)
    # a level can end up owning no grid points (every node of its
    # elements touches a finer element); firing it would waste a matvec
    # that updates nothing — drop it, its elements already ride along
    # as halo of the next finer level
    levels = [lv for lv in levels if len(lv.own_nodes)]
    plan = LTSPlan(dt=float(dt), elem_rate=rates, node_rate=nrate,
                   levels=levels)
    # every grid point is owned by exactly one level (the levels are
    # keyed by the distinct element rates, and a node's rate is the min
    # over its adjacent elements, so it always names an existing level)
    assert sum(len(lv.own_nodes) for lv in levels) == nnode
    return plan


def resolve(lts, plan_for):
    """The clustered schedule a run's ``lts`` argument asks for, or None
    for the global-step march: ``lts`` is off (``0`` / ``False`` /
    None), ``True`` (the :data:`DEFAULT_MAX_RATE` cap), an int cap or a
    ready plan; ``plan_for(cap)`` builds the caller's plan under a cap.
    A trivial plan — one rate-1 cluster — is None too, so ``lts`` on an
    unclustered model runs the global march bit for bit."""
    if not lts:
        return None
    if isinstance(lts, LTSPlan):
        plan = lts
    else:
        plan = plan_for(DEFAULT_MAX_RATE if lts is True else int(lts))
    return None if plan.trivial else plan


def _local_layouts(plan: LTSPlan) -> list[LTSLocalLayout]:
    """Build :meth:`LTSPlan.local_layouts` (see :class:`LTSLocalLayout`)."""
    index = {lv.rate: i for i, lv in enumerate(plan.levels)}
    nnode = len(plan.node_rate)
    # position of every node inside its owner's own-node array
    pos = np.empty(nnode, dtype=np.int64)
    for lv in plan.levels:
        pos[lv.own_nodes] = np.arange(len(lv.own_nodes))

    def source(rate, nodes, start):
        if not len(nodes):
            return None
        # the owner exists: a level is only dropped for owning nothing
        return HaloSource(
            index[rate], slice(start, start + len(nodes)), pos[nodes]
        )

    layouts = []
    for lv in plan.levels:
        local = np.concatenate([lv.own_nodes, lv.interp_nodes, lv.fine_nodes])
        n_own, n_coarse = len(lv.own_nodes), len(lv.interp_nodes)
        layouts.append(
            LTSLocalLayout(
                local_nodes=local,
                n_own=n_own,
                coarse=source(2 * lv.rate, lv.interp_nodes, n_own),
                fine=source(lv.rate // 2, lv.fine_nodes, n_own + n_coarse),
            )
        )
    return layouts


def constraint_groups(masters: dict) -> list[np.ndarray]:
    """Equal-rate node groups from hanging-node constraint closures.

    The hanging-node projection ``B^T A B`` couples each hanging point
    to its masters, so those nodes must update together: every
    connected component of the (hanging, master) relation becomes one
    group, which :func:`smooth_rates` clamps to a common rate.  That
    keeps each bar (independent) dof's support inside a single rate
    cluster, so the projection splits into independent per-level
    blocks.  ``masters`` is ``HangingNodeInfo.masters`` — the ragged
    ``{hanging: {master: weight}}`` map."""
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        root = a
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    for i, stencil in masters.items():
        ri = find(int(i))
        for jnode in stencil:
            parent[find(int(jnode))] = ri
    comps: dict[int, list[int]] = {}
    for a in parent:
        comps.setdefault(find(a), []).append(a)
    return [
        np.array(sorted(members), dtype=np.int64)
        for members in comps.values()
        if len(members) > 1
    ]

