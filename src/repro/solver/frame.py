"""The march frame: what every time loop does around its schedule.

Both leapfrog bodies in the repo — the one elastic loop,
:func:`~repro.solver.wave_solver.march_clustered`, which every
elastic schedule, the rank programs of
:mod:`repro.parallel.dist_solver` and the scalar solver's clustered
march drain, and the scalar solver's fused global step — advance their
own state and hand the rest to one :class:`MarchFrame`:

* **resume** — load the restart record (the latest valid snapshot, or
  exactly one collective step), refuse a record this march cannot
  continue, copy it into the live state and start from its ``next_k``;
* **boundary** — after ``s`` completed steps: poison the state (a
  :class:`~repro.resilience.FaultPlan`'s ``nan``), check it is finite
  (the health sentinel), save a checkpoint; in that order.

A clustered-LTS state is consistent only at sync boundaries, the
multiples of the coarsest rate (the frame's ``stride``), so that is the
only place the frame acts and the only index it resumes from; a
one-level (every-step) march is stride 1.  The sentinel and the checkpoint share
one cadence rule, :func:`~repro.resilience.sync_check_due`'s quotient
rule: due when a multiple of the interval was reached since the last
boundary that acted, so a schedule that only sees every ``stride``-th
boundary still acts at the first one after its cadence came due.

A schedule describes its restart record once, as ``snapshot(s)``: the
named views of its live state after ``s`` steps (the restart pair under
``<field>_prev`` / ``<field>`` plus what it carries — a cached ``K u``,
a seismogram or history prefix).  :meth:`MarchFrame.boundary` saves
what it returns, and calls it only when a check or a save is due;
:meth:`MarchFrame.resume` copies a saved record back into it.
"""

from __future__ import annotations

from repro.resilience import check_finite, sync_check_due


class MarchFrame:
    """Resume and boundary duties of one march of ``nsteps`` steps.

    ``checkpoint`` is a :class:`~repro.solver.checkpoint.CheckpointManager`
    or None; ``faults`` a :class:`~repro.resilience.FaultPlan` or None;
    ``health_interval`` the sentinel cadence (0 disables it).  ``field``
    names the state (``"u"`` elastic, ``"x"`` scalar) in the restart
    record and in a :class:`~repro.resilience.NumericalHealthError`;
    ``rank`` is None in a serial march.  A snapshot's header holds its
    ``next_k`` and, on a clustered schedule, the ``lts_rate`` it was
    written at (the stride).
    """

    def __init__(self, nsteps, *, stride=1, checkpoint=None, faults=None,
                 health_interval=0, field="u", rank=None):
        self.nsteps = nsteps
        self.stride = stride
        self.checkpoint = checkpoint
        self._every = checkpoint.interval if checkpoint is not None else 0
        self.faults = faults
        self.health_interval = health_interval
        self.field = field
        self.rank = rank
        self._meta = {"lts_rate": stride} if stride > 1 else {}
        self._saved = self._checked = 0

    def resume(self, snapshot, *, k0=0, latest=False, step=None) -> int:
        """The index the march starts from: ``k0`` from rest, else the
        ``next_k`` of the restart record — the checkpoint's latest
        valid one when ``latest``, exactly ``step`` when given (a
        collective restart) — after copying it into ``snapshot(next_k)``.
        Raises ``ValueError`` for a record past ``nsteps`` (a longer
        run's), off the sync grid, or missing an array this march
        carries."""
        mgr = self.checkpoint
        ck = None
        if mgr is not None and step is not None:
            ck = mgr.load_step(step)
        elif mgr is not None and latest:
            ck = mgr.latest()
        if ck is not None:
            k0 = int(ck.meta["next_k"])
            if k0 > self.nsteps:
                raise ValueError(
                    f"checkpoint for step {ck.step} resumes at next_k = "
                    f"{k0}, past this march's nsteps = {self.nsteps}: it "
                    "was written by a longer run"
                )
            if k0 % self.stride and k0 != self.nsteps:
                raise ValueError(
                    f"resume index {k0} is not a sync boundary (every "
                    f"{self.stride} steps)"
                )
            for key, dst in snapshot(k0).items():
                src = ck.arrays.get(key)
                if src is None or src.shape != dst.shape:
                    raise ValueError(
                        f"checkpoint for step {ck.step} has no {key!r} of "
                        f"shape {dst.shape}: it was written by another "
                        "kind of run (undamped, on another mesh, or in "
                        "the old 'kb_u_prev' / 'kb_prev_<i>' format)"
                    )
                dst[...] = src
        self._saved = self._checked = k0
        return k0

    def begin_step(self, k) -> None:
        """Open step (or fine index) ``k``: nothing in a serial march;
        a rank's frame runs its top-of-step hooks here."""

    def boundary(self, s, state, snapshot) -> None:
        """Duties after ``s`` completed steps, when ``s`` is a sync
        boundary: poison ``state`` (the array a ``nan`` fault hits),
        check ``snapshot(s)[field]``, save ``snapshot(s)``.  Steps are
        reported 0-based (``s - 1``), as the fault plan keys them."""
        if s % self.stride:
            return
        if self.faults is not None:
            self.faults.poison_state(self.rank or 0, s - 1, state)
        check = sync_check_due(
            s, self._checked, self.nsteps, self.health_interval
        )
        every = self._every
        save = every > 0 and s // every > self._saved // every
        if not (check or save):
            return
        arrays = snapshot(s)
        if check:
            check_finite(
                arrays[self.field], step=s - 1, rank=self.rank,
                field=self.field,
            )
            self._checked = s
        if save:
            self.checkpoint.save(s - 1, arrays, {"next_k": s, **self._meta})
            self._saved = s
