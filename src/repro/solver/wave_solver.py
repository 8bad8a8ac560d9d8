"""Explicit octree hexahedral elastic wave solver (paper eq. 2.4-2.5).

The semi-discrete system is

    ``M u'' + (C_AB + alpha M + beta K) u' + (K + K_AB) u = b``

with lumped mass ``M``, Rayleigh coefficients ``(alpha, beta)`` (one
scalar pair: the target damping ratio is uniform), and Stacey absorbing
boundary matrices ``C_AB`` (lumped) and ``K_AB`` (sparse ``c1``
coupling).  Central differences
with the diagonal/off-diagonal splitting of eq. (2.4) give the explicit
update; hanging-node continuity is restored each step by the projection
``B^T A B ubar = B^T b`` of eq. (2.5), which preserves diagonality.

Per step the solver performs one stiffness matvec — attenuation reuses
it, ``beta K u = beta * (K u)``, with the previous step's ``K u``
cached — a sparse boundary product, and vector updates: work linear in
the number of grid points, as the paper requires.

That update is written once, :func:`elastic_update`, as a function of
a *row set* (all rows, one LTS cluster's own rows, a rank's grid
points) built once, by :func:`restrict`.  The time loop
around it is written once too, :func:`march_clustered`: the clustered
leapfrog, each cluster firing on its own level-local state, whose one
level (:func:`whole_level`, every row at rate 1) is the every-step
schedule.  It is a generator over levels (an operator and a row set
each), a :func:`forcing` and a :class:`~repro.solver.frame.MarchFrame`
(resume, and poison / health check / checkpoint at its boundaries).
A level applies ``K`` through a *stiffness step*: the operator's
product, or the caller's — a rank of
:mod:`repro.parallel.dist_solver` passes its halo exchange, whose
suspension is the loop's only one.  Every caller drains it — this
solver, the scalar solver's clustered march, the shot slices, the
linear-tet baseline, the elastic inversion's forward, adjoint and
incremental marches — except a rank, which runs it with ``yield
from``.  It is a module function because code that holds only a row
set's arrays calls it.  The one other leapfrog body in the package is
the scalar solver's fused global step, which one sparse product per
step keeps faster than a level's.  A batch of ``B`` scenarios is a
trailing axis of the same body — ``tail = (B,)`` sizes the buffers,
broadcasts the per-dof diagonals and picks ``matmat`` over ``matvec``
— so ``run`` and ``run_batch`` are wrappers over one ``_run``.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from repro.backend import spmv_acc, spmv_into
from repro.fem.assembly import ElasticOperator, lumped_mass
from repro.fem.damping import rayleigh_coefficients
from repro.io.seismogram import ReceiverArray, Seismograms
from repro.io.snapshots import SnapshotRecorder
from repro.mesh.hanging import HangingNodeInfo, build_constraints
from repro.mesh.hexmesh import HexMesh
from repro.octree.linear_octree import LinearOctree
from repro.physics.cfl import elem_stable_dt, stable_timestep
from repro.physics.elastic import lame_from_velocities
from repro.physics.stacey import StaceyBoundary
from repro.resilience import DEFAULT_HEALTH_INTERVAL, validate_cfl
from repro.solver.checkpoint import CheckpointManager
from repro.solver.frame import MarchFrame
from repro.solver.lts import (
    DEFAULT_MAX_RATE,
    LTSPlan,
    build_lts_plan,
    constraint_groups,
    resolve,
)
from repro.telemetry.metrics import CategoryCounter

from repro import telemetry

#: absorbing boundary planes: all four sides plus the bottom;
#: the free surface is (2, 0) — the z = 0 plane
DEFAULT_ABSORBING = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1))


def _column(rows: np.ndarray, b: int, tail: tuple) -> tuple:
    """Index of ``rows`` of scenario ``b`` in an ``(n, 3, *tail)``
    block: the rows themselves solo, column ``b`` of them in a batch."""
    return (rows, slice(None), b) if tail else (rows,)


def update_flops_per_node(damped: bool) -> int:
    """Counted vector work of one :func:`elastic_update`: 12 per node,
    plus the ``2 * 3`` scalar operations of the cached Rayleigh term.
    The one number every schedule — serial, clustered, rank, shot — and
    the scalability profile charge per updated node."""
    return 18 if damped else 12


def restrict(m, C, dt, *, rows=None, local=None, m_alpha=None,
             Kb_diag=None, beta=0.0, K_AB=None, B=None) -> dict:
    """The :func:`elastic_update` *row set* of the rows ``rows`` (every
    row when None) at step ``dt``: the one builder of the coefficient
    dict every march runs on — the serial march, an LTS cluster's own
    rows, a rank's grid points, a rank's cluster, the scalar solver's
    levels and fused step, the elastic inversion, the tet baseline.

    The physics is given globally: the lumped mass ``m`` ``(n,)``
    (broadcast to ``C``'s block shape), the damping diagonal ``C``
    ``(n, *block)`` — ``block`` is ``(3,)`` elastic, ``()`` scalar — and,
    where they exist, Rayleigh ``alpha M`` ``m_alpha`` ``(n,)`` and
    ``beta diag K`` ``Kb_diag`` (``C``'s shape) with its ``beta``, the
    Stacey ``c1`` coupling ``K_AB`` (CSR over dofs) and the hanging-node
    constraint ``B`` (CSR, rows x independent dofs).  ``local`` — the
    global ids of the rows' local numbering, own rows first — renumbers
    the ``c1`` columns.  The keys, with ``A = M + (dt/2)(alpha M + C +
    beta diag K)`` the LHS diagonal of eq. (2.4):

    * ``c_u = 2M + (dt/2) beta diag K``, ``c_ku = dt^2 + (dt/2) beta``,
      ``c_kup = (dt/2) beta`` — the residual coefficients of ``u``,
      ``K u`` and the cached ``K u^{prev}`` (Rayleigh ``beta K u`` is
      ``beta * (K u)``: one matvec serves stiffness and damping);
    * ``prev_coef = -(M - (dt/2)(alpha M + C))``, of ``u^{prev}``;
    * ``dtc2 = dt^2``, of the forcing (a caller whose forcing arrives
      scaled overrides it);
    * ``kab`` — the rows' ``c1`` block prescaled by ``-dt^2``, its
      columns local dofs (given ``local``) in the global stored order,
      so the ``c1`` sums do not change; None without coupling;
    * ``B`` / ``BT`` — the projection block: ``B``'s rows ``rows``
      restricted to the columns they touch, ascending; None when
      conforming;
    * ``inv_A_bar`` — ``1 / (B^T A)`` (``1 / A`` conforming): the
      row-sum projection of the diagonal LHS preserves its diagonality.

    Raises ``ValueError`` when a ``B`` column's support leaves ``rows``
    (the projection would not split) or a ``c1`` partner is not in
    ``local``."""
    if rows is not None:
        m, C, m_alpha, Kb_diag = (
            None if a is None else a[rows] for a in (m, C, m_alpha, Kb_diag)
        )
    hd = 0.5 * dt
    block = (1,) * (C.ndim - 1)
    m = m.reshape(-1, *block)
    ma = 0.0 if m_alpha is None else m_alpha.reshape(-1, *block)
    c_u = 2.0 * m
    A = (m + hd * ma) + hd * C
    if Kb_diag is not None:
        c_u = c_u + hd * Kb_diag
        A = A + hd * Kb_diag
    co = {
        "c_u": c_u,
        "c_ku": dt * dt + hd * beta,
        "c_kup": hd * beta,
        "prev_coef": (hd * ma - m) + hd * C,
        "dtc2": dt * dt,
        "kab": None, "B": None, "BT": None,
    }
    if B is not None:
        if rows is not None:
            sub = B[rows]
            cols = np.unique(sub.indices)
            # the rows hold every entry of the columns they touch
            if np.count_nonzero(np.isin(B.indices, cols)) != sub.nnz:
                raise ValueError(
                    "a hanging node and its masters are split across row "
                    "sets: the projection does not restrict"
                )
            B = sub[:, cols].tocsr()
        co["B"], co["BT"] = B, B.T.tocsr()
        A = co["BT"] @ A
    co["inv_A_bar"] = 1.0 / A
    if K_AB is not None:
        nb = math.prod(C.shape[1:])
        kab = K_AB
        if rows is not None:
            kab = kab[(rows[:, None] * nb + np.arange(nb)).ravel()]
        kab = (kab * -(dt * dt)).tocsr()
        if local is not None:
            g2l = np.full(K_AB.shape[1] // nb, -1, dtype=np.int64)
            g2l[local] = np.arange(len(local))
            node = g2l[kab.indices // nb]
            if np.any(node < 0):
                raise ValueError(
                    "a c1 partner of the rows is not in their local set"
                )
            kab = csr_matrix(
                (kab.data, nb * node + kab.indices % nb, kab.indptr),
                shape=(kab.shape[0], nb * len(local)),
            )
        co["kab"] = kab if kab.nnz else None
    return co


def over_batch(co: dict, tail: tuple) -> dict:
    """``co`` with its three per-dof diagonals broadcast over the
    batch axis of ``(n, 3, *tail)`` blocks (once per march)."""
    if not tail:
        return co
    diags = ("c_u", "prev_coef", "inv_A_bar")
    return {**co, **{k: co[k][..., None] for k in diags}}


def elastic_update(co, uo, ko, kpo, po, bo, u, r, tmp, rbar, out) -> None:
    """The explicit update of eq. (2.4) and the hanging-node
    projection of eq. (2.5) on one *row set*, written once:

        ``r = c_u∘u − c_ku·K u − dt² K_AB u + c_kup·K u^{prev}
        + prev_coef∘u^{prev} + dt² b``,
        ``out = B (BᵀAB)⁻¹ Bᵀ r``.

    ``co`` is the row set's coefficient dict, built by :func:`restrict`
    (its docstring holds the keys); without ``B``, ``out = r ∘
    inv_A_bar``.  ``uo``, ``ko``, ``kpo``, ``po`` and ``bo``
    are its rows of ``u``, ``K u``, the cached ``K u^{prev}`` (None
    undamped), ``u^{prev}`` and the forcing (None when quiet); ``u`` is
    the full state the ``c1`` product reads; ``r``, ``tmp`` and ``rbar``
    are caller-owned scratch.  ``ko`` is read once, first, so without a
    cache ``tmp`` may be ``ko``'s own buffer; ``out`` is written last
    and may be ``ko`` or ``po``.  Blocks are ``(n, 3)`` or ``(n, 3, B)``
    (a scalar clustered level's ``(n[, B])``, which has no sparse
    product) — the sparse products see them as ``(n, 3 B)`` /
    ``(3 n[, B])`` — and
    every path applies the same ufuncs in the same order, so solo,
    batched, global, clustered and distributed marches agree bit for
    bit wherever their operands do."""
    np.multiply(co["c_u"], uo, out=r)
    np.multiply(ko, co["c_ku"], out=tmp)
    np.subtract(r, tmp, out=r)
    if co["kab"] is not None:
        # r += (-dt^2 K_AB) u, prescaled at setup
        tail = u.shape[2:]
        spmv_acc(co["kab"], u.reshape(-1, *tail), r.reshape(-1, *tail))
    if kpo is not None:
        # r += (dt/2) beta K u^{prev}; the caller swaps this step's
        # K u into the cache afterwards
        np.multiply(kpo, co["c_kup"], out=tmp)
        np.add(r, tmp, out=r)
    np.multiply(co["prev_coef"], po, out=tmp)
    np.add(r, tmp, out=r)
    if bo is not None:
        np.multiply(bo, co["dtc2"], out=tmp)
        np.add(r, tmp, out=r)
    if co["B"] is None:
        np.multiply(r, co["inv_A_bar"], out=out)
        return
    # hanging-node projection keeps the update explicit (2.5)
    w = math.prod(r.shape[1:])
    rbar2 = rbar.reshape(-1, w)
    spmv_into(co["BT"], r.reshape(-1, w), rbar2)
    np.multiply(rbar, co["inv_A_bar"], out=rbar)
    spmv_into(co["B"], rbar2, out.reshape(-1, w))


def _with_out(fc):
    """One scenario's forcing as a ``(t, out)`` callable: a
    :class:`~repro.sources.fault.SourceCollection`'s ``forces_at``, a
    ``(t, out)`` callable as it stands, a ``(t)`` callable — told apart
    by its positional parameters — with ``out`` ignored."""
    if hasattr(fc, "forces_at"):
        return fc.forces_at
    try:
        params = inspect.signature(fc).parameters.values()
        takes_out = sum(
            p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD,
                       p.VAR_POSITIONAL)
            for p in params
        ) >= 2
    except (TypeError, ValueError):  # builtins, odd callables
        takes_out = False
    return fc if takes_out else (lambda t, out: fc(t))


def forcing(forces, nnode, dt, tail=(), rows=None):
    """``force(k) -> block | None``: the forcing of step ``k`` (time
    ``k dt``) of a march, for every schedule and caller.

    Solo, ``forces`` is a :class:`~repro.sources.fault.SourceCollection`,
    a ``(t, out)`` callable or a ``(t)`` callable returning the
    ``(nnode, 3)`` field (None when quiet); in a batch (``tail = (B,)``)
    a sequence of them, stacked column by column into one reused
    ``(nnode, 3, B)`` block (None while every scenario is quiet).
    ``rows`` — a rank's grid points — selects the rows the march reads.
    No per-step node-sized allocation."""
    fns = [_with_out(fc) for fc in (forces if tail else [forces])]
    fbuf = np.zeros((nnode, 3, *tail))
    if not tail:
        fn = fns[0]
        force = lambda k: fn(k * dt, fbuf)  # noqa: E731
    else:
        fcol = np.zeros((nnode, 3))  # contiguous per-scenario scratch
        col_live = np.zeros(len(fns), dtype=bool)  # column nonzero in fbuf

        def force(k):
            live = False
            for b, fn in enumerate(fns):
                fb = fn(k * dt, fcol)
                if fb is None:
                    # a column goes quiet: zero it once, then skip the
                    # fill until the source speaks again (the content
                    # is zero either way, so bit-identity holds)
                    if col_live[b]:
                        fbuf[:, :, b] = 0.0
                        col_live[b] = False
                else:
                    fbuf[:, :, b] = fb
                    col_live[b] = True
                    live = True
            return fbuf if live else None

    if rows is None:
        return force
    full, b_rows = force, np.empty((len(rows), 3, *tail))

    def force_rows(k):
        b = full(k)
        return None if b is None else np.take(b, rows, axis=0, out=b_rows)

    return force_rows


def drain(march):
    """Run a march generator to its end on this thread — a serial
    caller, for which nothing happens at the suspension points — and
    return what it returns."""
    try:
        while True:
            next(march)
    except StopIteration as stop:
        return stop.value


def receiver_slots(levels, receivers, b=0, tail=()) -> list[tuple]:
    """Per-level membership of the :class:`ReceiverArray` ``receivers``
    of scenario ``b``: each receiver node is owned by exactly one level;
    returns ``(receiver idx, index of those nodes' rows in the level's
    local blocks, whose own rows lead)`` pairs per level."""
    slots = []
    for lev in levels:
        own = lev["own"]
        nodes = receivers.nodes
        pos = np.searchsorted(own, nodes)
        pos_c = np.minimum(pos, max(len(own) - 1, 0))
        mask = (pos < len(own)) & (own[pos_c] == nodes)
        ridx = np.nonzero(mask)[0]
        slots.append((ridx, _column(pos[ridx], b, tail)))
    return slots


def record_receivers(data, slots, record, dt):
    """:func:`march_clustered` ``observe`` hook filling each ``data``
    block from its :func:`receiver_slots`: a receiver is sampled when
    the level owning it fires at fine index ``j`` (column ``j``, at the
    level's cadence) — the central-difference velocity over the level's
    step or (``record="displacement"``) the displacement."""
    def hook(li, j, lev, x_prev, x, x_next):
        for d, sl in zip(data, slots):
            ridx, rows = sl[li]
            if not len(ridx):
                continue
            if record == "velocity":
                d[ridx, :, j] = (
                    x_next[rows] - x_prev[rows]
                ) / (2.0 * (lev["rate"] * dt))
            else:
                d[ridx, :, j] = x[rows]

    return hook


def whole_level(op, co) -> dict:
    """The one level of a global-step march: every row of the operator
    ``op`` is its own, at rate 1, with no halo.  :func:`march_clustered`
    over ``[whole_level(op, co)]`` is the every-step schedule; a rank
    adds its ``"exchange"``."""
    return {"rate": 1, "own": np.arange(op.nnode), "coarse": None,
            "fine": None, "K": op, **co}


def cluster_levels(plan: LTSPlan, operator, row_set) -> list[dict]:
    """The levels of a clustered march, one per cluster of ``plan``,
    coarsest first, each on its
    :meth:`~repro.solver.lts.LTSPlan.local_layouts` numbering (own rows
    first, ghost layer behind) — the one builder of every clustered
    level: the elastic solver's, a rank's and the scalar solver's.  The
    caller passes its physics as two callbacks:
    ``operator(lv, g2l, n_local)`` returns the level's stiffness over
    its ``n_local`` local rows, ``g2l`` mapping the global ids of the
    level's nodes to them (valid during the call only), and
    ``row_set(lv, local)`` returns the :func:`restrict` row set of
    ``lv.own_nodes`` at the level's step, ``local`` being the layout's
    global ids."""
    g2l = np.empty(len(plan.node_rate), dtype=np.int64)
    levels = []
    for lv, lay in zip(plan.levels, plan.local_layouts()):
        local = lay.local_nodes
        g2l[local] = np.arange(len(local))
        levels.append({
            "rate": lv.rate,
            "own": lv.own_nodes,
            "coarse": lay.coarse,
            "fine": lay.fine,
            "K": operator(lv, g2l, len(local)),
            **row_set(lv, local),
        })
    return levels


def elastic_level_operator(conn, h, lam, mu, split=lambda lv: None):
    """The :func:`cluster_levels` ``operator`` of the elastic stiffness
    of the elements ``(conn, h, lam, mu)``: a level's
    :class:`ElasticOperator` over its cluster's elements on its local
    numbering.  ``split(lv)`` — a rank's — names the level's leading
    interface elements, whose product the halo exchange runs first."""
    def operator(lv, g2l, n_local):
        e = lv.elems
        return ElasticOperator(
            g2l[conn[e]], h[e], lam[e], mu[e], n_local, split_elems=split(lv)
        )

    return operator


def march_clustered(levels, force, frame, tail=(), *, count, observe=(),
                    carry=None, resume=None, traced=False):
    """The leapfrog schedule, written once for every physics and every
    step size (contract in :mod:`repro.solver.lts`): one loop over fine
    indices; each level fires when its rate divides the index,
    coarsest first.  A level is a subdomain on its
    :meth:`~repro.solver.lts.LTSPlan.local_layouts` numbering and holds
    its own ``x_prev`` / ``x`` / ``x_next`` / ``Kx`` blocks, whose
    leading ``len(own)`` rows are its own values and whose tail is its
    ghost layer.  A firing refreshes the ghost layer from the owning
    levels' buffers — the one-coarser owner's ``x_prev`` (theta = 0) or
    ``(x_prev + x) / 2`` (theta = 1/2), the one-finer owner's ``x`` —
    applies the level's stiffness step, runs :func:`elastic_update` on
    the own rows and rotates the level's buffers: nothing node-count
    sized is touched, and no per-step O(n) allocation is made.  The
    ``frame`` strides by the coarsest rate, so it acts only at sync
    boundaries; the global restart pair is gathered from the levels'
    own rows only when it needs one.  One level (a
    :func:`whole_level`) owns every row: its buffers *are* the global
    state, so its forcing, restart record and result are used as they
    stand, and its record is the every-step one (``u_prev`` / ``u`` /
    ``ku_prev``).  A generator that returns the final global pair
    ``(x_prev, x)`` and each level's firing count.

    ``levels``, coarsest first, hold ``rate``, ``own`` (the ascending
    global ids of the level's own nodes), the ``coarse`` / ``fine``
    :class:`~repro.solver.lts.HaloSource` of its layout (None without
    one), an :func:`elastic_update` row set — a node's block is the
    shape of its row of ``prev_coef``: ``(3,)`` elastic, ``()`` scalar —
    and ``K``, its operator over its local rows (``nnode`` of them;
    ``matvec`` / ``matmat`` fill at least the own rows of ``out``;
    ``flops_per_matmat``).  A level with an ``exchange(x, Kx)``, a
    generator, fires through it instead of ``K``'s product: a rank's
    halo exchange, suspending once between its sends and its receives
    — the loop suspends nowhere else.  ``force`` is a :func:`forcing`;
    ``frame`` the :class:`~repro.solver.frame.MarchFrame` of
    ``nsteps``, resumed with the ``resume`` keywords, whose
    ``begin_step`` / ``boundary`` open and close each fine index.
    ``count(kind, flops)`` receives each firing's ``"stiffness"`` and
    ``"update"`` work; each ``observe(li, j, lev, x_prev, x, x_next)``
    hook sees level ``li`` fire at fine index ``j``, before its buffers
    rotate; ``carry(s)`` is what the restart record holds beside the
    state; ``traced`` opens the ``stiffness`` / ``update`` spans (none
    spans a suspension)."""
    block = levels[0]["prev_coef"].shape[1:]
    levels = [over_batch(lev, tail) for lev in levels]
    width = math.prod(tail)
    damped = bool(levels[0]["c_kup"])
    shape = (*block, *tail)
    whole = len(levels) == 1
    st = []
    for lev in levels:
        n_local, n_own, B = lev["K"].nnode, len(lev["own"]), lev["B"]
        s = {k: np.zeros((n_local, *shape)) for k in ("x_prev", "x")}
        s["Kx"] = np.empty((n_local, *shape))
        # undamped, the update reads K x~ before it writes the new state,
        # so the new state goes into Kx's own rows; damped, K x~ is the
        # next firing's cache (local-sized: the two swap)
        s["x_next"] = np.empty((n_local, *shape)) if damped else s["Kx"]
        s["ku_prev"] = np.zeros((n_local, *shape)) if damped else None
        s["r"] = np.empty((n_own, *shape))
        # one level reads the forcing block as it stands
        s["b"] = None if whole else np.empty((n_own, *shape))
        # undamped, the K x~ rows are the update's scratch too
        s["tmp"] = np.empty((n_own, *shape)) if damped else None
        s["rbar"] = None if B is None else np.empty((B.shape[1], *shape))
        st.append(s)
    # several levels gather their own rows into one global pair
    pair = None if whole else np.empty(
        (2, sum(len(lev["own"]) for lev in levels), *shape)
    )
    field = frame.field
    loaded = False

    def restart_pair():
        if whole:
            return st[0]["x_prev"], st[0]["x"]
        for lev, s in zip(levels, st):
            n = len(lev["own"])
            pair[0][lev["own"]] = s["x_prev"][:n]
            pair[1][lev["own"]] = s["x"][:n]
        return pair

    def record(k, x_prev, x):
        rec = {f"{field}_prev": x_prev, field: x}
        if damped:
            for i, (lev, s) in enumerate(zip(levels, st)):
                key = "ku_prev" if whole else f"ku_prev_{i}"
                rec[key] = s["ku_prev"][: len(lev["own"])]
        if carry is not None:
            rec.update(carry(k))
        return rec

    def snapshot(k):
        return record(k, *restart_pair())

    def restore(k):  # the frame loads a restart record into these
        nonlocal loaded
        loaded = True
        # the pair is overwritten: gather nothing into it first
        return record(k, *(restart_pair() if whole else pair))

    k0 = frame.resume(restore, **(resume or {}))
    if loaded and not whole:  # the record's own rows into each level
        for lev, s in zip(levels, st):
            n = len(lev["own"])
            for key, src in zip(("x_prev", "x"), pair):
                np.take(src, lev["own"], axis=0, out=s[key][:n], mode="clip")
    # a nan fault poisons the leading entry of the state it is handed:
    # the owner of node 0 leads its own rows with it
    i0 = next(i for i, lev in enumerate(levels) if lev["own"][0] == 0)
    fired = [0] * len(levels)
    # the kernel's own accounting, so the batched numbers cannot drift
    # from the 1-RHS ones
    flops = [
        (lev["K"].flops_per_matmat(width),
         update_flops_per_node(damped) * len(lev["own"]) * width,
         lev["K"].nelem if traced else 0)
        for lev in levels
    ]
    span = telemetry.span if traced else telemetry.no_span
    r_min = min(lev["rate"] for lev in levels)
    for j in range(k0, frame.nsteps, r_min):
        frame.begin_step(j)
        b = force(j)
        for li, (lev, s) in enumerate(zip(levels, st)):
            rate = lev["rate"]
            if j % rate:
                continue
            x_prev, x, x_next, Kx = s["x_prev"], s["x"], s["x_next"], s["Kx"]
            # ndarray.take, not np.take: the wrapper's call overhead is
            # a visible share of a small level's firing
            src = lev["coarse"]
            if src is not None:
                owner, halo = st[src.level], x[src.rows]
                owner["x_prev"].take(src.pos, axis=0, out=halo, mode="clip")
                if j % (2 * rate):  # theta = 1/2
                    # the stiffness step overwrites Kx: its halo rows
                    # serve as the second operand
                    mid = Kx[src.rows]
                    owner["x"].take(src.pos, axis=0, out=mid, mode="clip")
                    np.add(halo, mid, out=halo)
                    np.multiply(halo, 0.5, out=halo)
            src = lev["fine"]
            if src is not None:
                st[src.level]["x"].take(
                    src.pos, axis=0, out=x[src.rows], mode="clip"
                )
            K, exchange = lev["K"], lev.get("exchange")
            fl_K, fl_upd, nelem = flops[li]
            if exchange is None:
                # literal span names, no kwargs: no hot-loop allocations
                with span("stiffness") as _s:
                    (K.matmat if tail else K.matvec)(x, out=Kx)
                    _s.add("flops", fl_K)
                    _s.add("elements", nelem)
            else:
                yield from exchange(x, Kx)
            count("stiffness", fl_K)
            n, bo = len(lev["own"]), b
            if b is not None and s["b"] is not None:
                bo = b.take(lev["own"], axis=0, out=s["b"], mode="clip")
            ku_prev, ko = s["ku_prev"], Kx[:n]
            with span("update") as _s:
                # the c1 product inside reads the whole local x, ghost
                # layer included
                elastic_update(
                    lev, x[:n], ko, None if ku_prev is None else ku_prev[:n],
                    x_prev[:n], bo, x, s["r"],
                    ko if ku_prev is None else s["tmp"], s["rbar"],
                    x_next[:n],
                )
                _s.add("flops", fl_upd)
            count("update", fl_upd)
            for hook in observe:
                hook(li, j, lev, x_prev, x, x_next)
            s["x_prev"], s["x"], s["x_next"] = x, x_next, x_prev
            if damped:
                # this firing's K x~ is the next one's cache
                s["Kx"], s["ku_prev"] = ku_prev, Kx
            else:
                s["Kx"] = x_prev
            fired[li] += 1
        frame.boundary(j + r_min, st[i0]["x"], snapshot)
    return restart_pair(), fired


class ElasticWaveSolver:
    """Explicit elastodynamics on an octree hexahedral mesh.

    Parameters
    ----------
    mesh / tree:
        The mesh and the balanced octree it came from (for constraints
        and source location).
    material:
        Object with ``query(points_m) -> (vs, vp, rho)``.
    damping_ratio:
        Target Rayleigh damping ratio (0 disables attenuation).
    damping_band:
        ``(f_min, f_max)`` Hz band for the least-squares Rayleigh fit.
    absorbing:
        Iterable of ``(axis, side)`` absorbing planes.
    stacey_c1:
        Include the tangential-derivative ``c1`` terms of Stacey's
        condition (False = Lysmer viscous boundary).
    dt:
        Time step; defaults to the CFL-stable step.
    constraints:
        Precomputed :class:`HangingNodeInfo` (else built here).
    """

    def __init__(
        self,
        mesh: HexMesh,
        tree: LinearOctree,
        material,
        *,
        damping_ratio: float = 0.0,
        damping_band: tuple[float, float] = (0.1, 1.0),
        absorbing: Sequence[tuple[int, int]] = DEFAULT_ABSORBING,
        stacey_c1: bool = True,
        dt: float | None = None,
        cfl_safety: float = 0.5,
        constraints: HangingNodeInfo | None = None,
    ):
        self.mesh = mesh
        self.tree = tree
        vs, vp, rho = material.query(mesh.elem_centers)
        lam, mu = lame_from_velocities(vs, vp, rho)
        self.lam, self.mu, self.rho = lam, mu, rho
        self.vs, self.vp = np.asarray(vs, float), np.asarray(vp, float)
        h = mesh.elem_h

        self.K = ElasticOperator(mesh.conn, h, lam, mu, mesh.nnode)
        self.m = lumped_mass(mesh.conn, h, rho, mesh.nnode)  # (nnode,)

        # Rayleigh attenuation: one least-squares (alpha, beta) over the
        # band.  The ratio is uniform, so beta K u = beta * (K u) and
        # the time loops need no second operator.
        if damping_ratio > 0:
            alpha, beta = rayleigh_coefficients(
                float(damping_ratio), *damping_band
            )
            self.alpha, self.beta = float(alpha), float(beta)
            #: hoisted out of the time loop: the diagonal is a full
            #: O(nelem) scatter, constant across steps
            self.Kb_diag = self.beta * self.K.diagonal()
            self.m_alpha = self.alpha * self.m
        else:
            # undamped, restrict's zero Rayleigh terms give the same bits
            self.alpha = self.beta = 0.0
            self.Kb_diag = self.m_alpha = None

        # Stacey absorbing boundaries
        self.C_diag, self.K_AB = StaceyBoundary(mesh, absorbing).matrices(
            lam, mu, rho, include_c1=stacey_c1
        )

        # hanging-node constraints
        self.constraints = (
            constraints
            if constraints is not None
            else build_constraints(tree, mesh)
        )
        self.B = self.constraints.B.tocsr()

        self.dt = dt if dt is not None else stable_timestep(
            h, vp, safety=cfl_safety
        )
        #: the global march's row set: every node at the solver's ``dt``
        self.row_set = self._restrict(self.dt)
        self.flops = CategoryCounter()
        self._lts_plan_cache = None
        self._lts_exec_cache = None

    @property
    def nnode(self) -> int:
        return self.mesh.nnode

    def _restrict(self, dt: float, **rows) -> dict:
        """:func:`restrict` of this solver's physics — mass, boundary
        and Rayleigh damping, ``c1`` coupling, projection — at step
        ``dt`` (``rows`` / ``local`` select a level's rows)."""
        return restrict(
            self.m, self.C_diag, dt, m_alpha=self.m_alpha,
            Kb_diag=self.Kb_diag, beta=self.beta, K_AB=self.K_AB, B=self.B,
            **rows,
        )

    def memory_bytes(self) -> int:
        """Solver working-set estimate (the paper's ~10x hex-vs-tet
        memory claim is measured from this and the tet counterpart):
        everything the solver actually holds — connectivity, kernel
        workspace, state/force/scratch buffers, the global row set, and
        the sparse boundary/constraint structures."""
        n = 0
        n += self.mesh.conn.nbytes
        n += 8 * (2 * self.mesh.nelem)  # material coefficient vectors
        n += self.K.workspace_bytes()  # gather/scatter plan + buffers
        # what march_clustered allocates for one whole level: x_prev,
        # x, K x (also x_next and the update's scratch), r and the
        # forcing block; damped, x_next, the cached K x and tmp apart
        nvec = 5
        if self.m_alpha is not None:
            n += self.m_alpha.nbytes
        if self.Kb_diag is not None:
            n += self.Kb_diag.nbytes
            nvec += 3
        n += 8 * 3 * self.nnode * nvec
        n += 8 * self.nnode  # the level's own-row index
        n += self.m.nbytes + self.C_diag.nbytes
        co = self.row_set
        n += co["c_u"].nbytes + co["prev_coef"].nbytes
        # inv_A_bar, and the projected residual buffer of its size
        n += 2 * co["inv_A_bar"].nbytes
        for S in (self.K_AB, co["kab"], co["B"], co["BT"]):
            if S is not None:
                n += S.data.nbytes + S.indices.nbytes + S.indptr.nbytes
        return n

    # ----------------------------------------------- local time stepping

    def lts_plan(self, *, max_rate: int = DEFAULT_MAX_RATE) -> LTSPlan:
        """Clustered-LTS plan for this solver's mesh/material: the
        per-element stable steps are binned into power-of-two rate
        clusters, 2-to-1 smoothed, with hanging-node constraint
        closures clamped to a common rate (the projection then splits
        into independent per-level blocks)."""
        c = self._lts_plan_cache
        if c is not None and c[0] == max_rate:
            return c[1]
        plan = build_lts_plan(
            self.mesh.conn,
            self.nnode,
            dt=self.dt,
            elem_dt=elem_stable_dt(self.mesh.elem_h, self.vp, safety=1.0),
            max_rate=max_rate,
            groups=constraint_groups(self.constraints.masters),
        )
        self._lts_plan_cache = (max_rate, plan)
        return plan

    def _lts_exec(self, plan: LTSPlan) -> list[dict]:
        """The :func:`cluster_levels` of ``plan``: each level's
        stiffness over the cluster's elements (own + one-coarser halo)
        and local nodes, and the :meth:`_restrict` row set of its own
        nodes at the cluster step, its ``c1`` columns on the local
        numbering.  The hanging-node closures are rate-clamped
        (:func:`constraint_groups`), so each level's projection block
        splits off.  Cached on the plan object."""
        c = self._lts_exec_cache
        if c is not None and c[0] is plan:
            return c[1]
        levels = cluster_levels(
            plan,
            elastic_level_operator(
                self.mesh.conn, self.mesh.elem_h, self.lam, self.mu
            ),
            lambda lv, local: self._restrict(
                lv.rate * self.dt, rows=lv.own_nodes, local=local
            ),
        )
        self._lts_exec_cache = (plan, levels)
        return levels

    @staticmethod
    def _lts_fill_receiver_gaps(data, levels, slots, nsteps: int) -> None:
        """Receivers owned by a coarse cluster are sampled at its own
        cadence; linearly interpolate the unrecorded columns so every
        trace comes back on the fine-step time axis."""
        cols = np.arange(nsteps, dtype=float)
        for lev, (ridx, _) in zip(levels, slots):
            rate = lev["rate"]
            if rate == 1 or not len(ridx):
                continue
            filled = np.arange(0, nsteps, rate)
            fcols = filled.astype(float)
            for i in ridx:
                for comp in range(data.shape[1]):
                    data[i, comp, :] = np.interp(
                        cols, fcols, data[i, comp, filled]
                    )

    def schedule(self, lts, t_end: float) -> tuple[LTSPlan | None, int]:
        """The schedule a run to ``t_end`` marches: the non-trivial
        plan its ``lts`` argument resolves to (:func:`~repro.solver.lts.
        resolve`; None for the global loop) and ``nsteps``.  The march
        must end on a sync boundary (all nodes at the same time), so
        ``nsteps`` is rounded **up** to the next multiple of the
        coarsest cluster rate — a few extra steps past ``t_end``, never
        fewer."""
        nsteps = int(np.ceil(t_end / self.dt))
        plan = resolve(lts, lambda cap: self.lts_plan(max_rate=cap))
        if plan is None:
            return None, nsteps
        r_max = plan.max_rate
        return plan, -(-nsteps // r_max) * r_max

    def _hooks(self, levels, data, slots, record, snapshots, callback):
        """The ``observe`` hooks of a run, in order: the telemetry
        samples, the receivers (:func:`record_receivers`;
        :meth:`_lts_fill_receiver_gaps` fills the columns a coarse
        level skips), the snapshot recorder, the callback — only those
        the run asked for.  All but the receivers see the full state,
        which only one level holds."""
        dt = self.dt
        hooks = []
        if telemetry.enabled() and len(levels) == 1:
            def sample(li, j, lev, x_prev, x, x_next):
                # displacement "energy" proxy — drift shows up as
                # unbounded growth of this per-step series
                telemetry.sample(
                    "elastic.u2", float(np.vdot(x_next, x_next)), step=j
                )
                telemetry.sample_alloc(step=j)

            hooks.append(sample)
        if data is not None:
            hooks.append(record_receivers(data, slots, record, dt))
        if snapshots is not None:
            hooks.append(
                lambda li, j, lev, x_prev, x, x_next: snapshots.maybe_record(
                    j, j * dt, x
                )
            )
        if callback is not None:
            hooks.append(
                lambda li, j, lev, x_prev, x, x_next: callback(j, j * dt, x)
            )
        return hooks

    def _run(
        self, forces, t_end, tail, recs, *, record, lts, faults,
        health_interval, snapshots=None, callback=None, checkpoint=None,
        resume=False,
    ) -> list[Seismograms] | None:
        """What :meth:`run` (``tail = ()``) and :meth:`run_batch`
        (``tail = (B,)``) share: resolve the LTS setting into levels —
        one :func:`whole_level` of every node, or the plan's clusters —
        validate, drain :func:`march_clustered` over them and wrap the
        records, one :class:`ReceiverArray` of ``recs`` per column.
        Snapshots, ``checkpoint`` and ``resume`` are solo arguments
        (the checkpointed record is column 0's seismogram prefix)."""
        plan, nsteps = self.schedule(lts, t_end)
        name = "elastic.run" + ("_batch" if tail else "")
        if plan is None:
            levels = [whole_level(self.K, self.row_set)]
        else:
            levels = self._lts_exec(plan)
            name += "_lts"
            if telemetry.enabled():
                telemetry.gauge(
                    "elastic.lts_theoretical_speedup",
                    plan.theoretical_speedup(),
                )
        if len(levels) > 1 and (snapshots is not None or callback is not None):
            raise ValueError(
                "snapshots/callback need the full state every step; "
                "run with lts=0 (they are unsupported under LTS)"
            )
        if health_interval:
            validate_cfl(self.dt, self.mesh.elem_h, self.vp)
        if telemetry.enabled():
            telemetry.gauge(
                "elastic.cfl_margin",
                stable_timestep(self.mesh.elem_h, self.vp, safety=1.0)
                / self.dt,
            )
        data = (
            [ra.allocate(3, nsteps) for ra in recs]
            if recs is not None else None
        )
        slots = [
            receiver_slots(levels, ra, b, tail)
            for b, ra in enumerate(recs or ())
        ]
        frame = MarchFrame(
            nsteps, stride=levels[0]["rate"], checkpoint=checkpoint,
            faults=faults, health_interval=health_interval,
        )
        with telemetry.span(name) as _run:
            _run.add("nsteps", nsteps)
            _run.add("nnode", self.nnode)
            if tail:
                _run.add("batch", math.prod(tail))
            _run.add("levels", len(levels))
            _run.add("max_rate", levels[0]["rate"])
            before = self.flops.total
            _, fired = drain(march_clustered(
                levels, forcing(forces, self.nnode, self.dt, tail), frame,
                tail, count=self.flops.add, traced=True,
                observe=self._hooks(
                    levels, data, slots, record, snapshots, callback
                ),
                carry=None if data is None else (
                    lambda s: {"rec_data": data[0][:, :, :s]}
                ),
                resume={"latest": resume},
            ))
            for lev, n in zip(levels, fired):
                _run.add(f"fired_r{lev['rate']}", n)
            _run.add("flops", self.flops.total - before)
        for d, sl in zip(data or (), slots):
            self._lts_fill_receiver_gaps(d, levels, sl, nsteps)
        if recs is None:
            return None
        return [
            Seismograms(data=d, dt=self.dt, kind=record, positions=ra.positions)
            for d, ra in zip(data, recs)
        ]

    def run(
        self,
        forces: Callable[[float, np.ndarray], np.ndarray] | object,
        t_end: float,
        *,
        receivers: ReceiverArray | None = None,
        snapshots: SnapshotRecorder | None = None,
        record: str = "velocity",
        callback: Callable[[int, float, np.ndarray], None] | None = None,
        checkpoint: CheckpointManager | None = None,
        resume: bool = False,
        faults=None,
        health_interval: int = DEFAULT_HEALTH_INTERVAL,
        lts: int | bool | LTSPlan = 0,
    ) -> Seismograms | None:
        """March the wave equation from rest to ``t_end``.

        ``forces`` is either a callable ``forces(t, out) -> (nnode, 3)``
        or a :class:`repro.sources.fault.SourceCollection`.

        Resilience: a :class:`~repro.solver.checkpoint.CheckpointManager`
        durably snapshots the leapfrog restart pair (plus the cached
        ``K u^{k-1}`` of a damped run and the recorded seismogram
        prefix) every ``checkpoint.interval`` steps; ``resume=True`` restarts from the
        latest valid snapshot instead of rest, reproducing the
        uninterrupted run bit for bit (the update depends only on the
        two previous states and the deterministic forcing).  Snapshot
        recorders only see steps after the resume point.
        ``health_interval`` arms the NaN/Inf sentinel (every that many
        steps plus the final one) and re-validates the CFL bound up
        front; 0 disables both.  ``faults`` takes a
        :class:`~repro.resilience.FaultPlan` (state poisoning only in
        serial runs).

        ``lts`` turns on clustered local time stepping for this run:
        off (the default), True (the default rate cap), an int cap or
        an :class:`LTSPlan` (:meth:`schedule`).  Either way the run
        drains :func:`march_clustered`: ``lts`` off, or a trivial plan
        — every element in the rate-1 cluster — marches one
        :func:`whole_level` of every node, so ``lts`` enabled on an
        unclustered model stays bitwise-identical to ``lts`` off.
        Snapshot recorders and per-step callbacks need the full state
        at every step and are not supported on a plan of several
        levels.
        """
        out = self._run(
            forces, t_end, (), None if receivers is None else [receivers],
            record=record, lts=lts, faults=faults,
            health_interval=health_interval, snapshots=snapshots,
            callback=callback, checkpoint=checkpoint, resume=resume,
        )
        return None if out is None else out[0]

    def run_batch(
        self,
        forces: Sequence[Callable[[float, np.ndarray], np.ndarray] | object],
        t_end: float,
        *,
        receivers: ReceiverArray | Sequence[ReceiverArray] | None = None,
        record: str = "velocity",
        callback: Callable[[int, float, np.ndarray], None] | None = None,
        lts: int | bool | LTSPlan = 0,
        faults=None,
        health_interval: int = DEFAULT_HEALTH_INTERVAL,
    ) -> list[Seismograms] | None:
        """March ``B = len(forces)`` scenarios at once from rest.

        One fused time loop advances the whole ensemble: states are
        ``(nnode, 3, B)`` blocks, the stiffness runs as a single
        level-3 :meth:`ElasticOperator.matmat`, the Stacey ``c1``
        coupling and the hanging-node projection run as multi-vector
        CSR products over all ``3 B`` columns, and the diagonal
        updates broadcast — so the per-step Python dispatch and every
        indirect-addressing pass are paid once per step instead of
        once per scenario.  Scenario ``b``'s trajectory is
        bit-identical to ``run(forces[b], t_end)`` (identical
        summation orders throughout; a scenario idle at a step
        contributes a zero forcing column, equal under ``==``).

        ``receivers`` is a single shared :class:`ReceiverArray` or one
        per scenario; ``callback(k, t, u)`` sees the full
        ``(nnode, 3, B)`` block.  Returns one :class:`Seismograms` per
        scenario (None without receivers).  A width-1 batch without a
        callback runs the solo schedule of :meth:`run` — the same bits,
        minus the block layout's overhead.

        ``faults``/``health_interval`` mirror :meth:`run`: the fused
        state block is checked for non-finite values every
        ``health_interval`` steps (and at the final step; under LTS, at
        the sync boundaries), raising
        :class:`~repro.resilience.health.NumericalHealthError` — one
        poisoned column fails the whole fused loop, which is exactly
        the signal the service scheduler's bisection isolates.
        """
        Bn = len(forces)
        if receivers is None:
            recs = None
        elif isinstance(receivers, ReceiverArray):
            recs = [receivers] * Bn
        else:
            recs = list(receivers)
            if len(recs) != Bn:
                raise ValueError("need one receiver array per scenario")
        if Bn == 1 and callback is None:
            # a width-1 batch is a solo run: the tail = () schedule is
            # bitwise the batch column (the pinned batched == solo
            # invariant) without the (B,) layout's transposes and row
            # blocks; a callback's contract is the (nnode, 3, B) block
            return self._run(
                forces[0], t_end, (), recs, record=record, lts=lts,
                faults=faults, health_interval=health_interval,
            )
        return self._run(
            forces, t_end, (Bn,), recs, record=record, lts=lts,
            faults=faults, health_interval=health_interval, callback=callback,
        )
