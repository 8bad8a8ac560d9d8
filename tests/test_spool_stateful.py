"""The spool protocol as a state machine, with a crash at every rename.

Random submit / claim / bump / complete / quarantine sequences, any of
which may "kill the process" at its *k*-th file-system mutation (the
call either never happens or is the last thing that does), after which
a fresh :class:`Spool` opens the same directory.  Whatever the
interleaving, every submitted id is in exactly one of root /
``inflight/`` / ``done/`` / ``quarantine/``, every ``.attempts``
sidecar sits next to its own request, a ``.tmp`` is never claimed, and
a recovery drain leaves every id with one disposition and at most one
``.npz``.  The plain tests below pin the submit race and the hint.
"""

import os
import sys
import tempfile
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import durable
from repro.durable import atomic_write
from repro.service import CoalescingScheduler
from repro.service import spool as spool_mod
from repro.service.server import serve
from repro.service.spool import Spool
from tests.test_server import ServeStub, spooled

WHERE = ("pending", "inflight", "done", "quarantine")


class Crash(BaseException):
    """The process died here (BaseException: no handler in the code
    under test may swallow it)."""


class FaultyOS:
    """Stands in for ``os`` inside ``repro.service.spool`` and
    ``repro.durable`` (the spool's writes): counts the mutating calls
    and dies at the armed one — before it takes effect or right after
    — and stays dead until :meth:`revive`."""

    MUTATORS = ("replace", "link", "remove", "unlink", "pwrite",
                "ftruncate")

    def __init__(self):
        self.countdown = 0
        self.after = False
        self.dead = False

    def arm(self, fault) -> None:
        self.countdown, self.after = fault or (0, False)

    def revive(self) -> None:
        self.countdown, self.dead = 0, False

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in self.MUTATORS:
            return real

        def mutate(*args):
            if self.dead:
                raise Crash(name)
            if self.countdown:
                self.countdown -= 1
                if not self.countdown:
                    self.dead = True
                    if self.after:
                        real(*args)
                    raise Crash(name)
            return real(*args)

        return mutate


#: None, or (die at the k-th mutation, after it took effect?)
FAULTS = st.one_of(
    st.none(), st.tuples(st.integers(1, 4), st.booleans())
)
PICK = st.integers(0, 1_000)


class SpoolModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.out = os.path.join(self.dir.name, "out")
        os.makedirs(self.out)
        self.os = spool_mod.os = durable.os = FaultyOS()
        self.where: dict[str, str] = {}
        self.attempts: dict[str, int] = {}
        self.scheduler = CoalescingScheduler(ServeStub())
        self.open()

    def open(self) -> None:
        self.spool = Spool(os.path.join(self.dir.name, "spool"))
        self.spool.recover()

    def teardown(self):
        self.drain()
        self.scheduler.close()
        spool_mod.os = durable.os = os
        self.dir.cleanup()

    # ---------------------------------------------------------- helpers

    def on_disk(self) -> dict:
        """id -> where, asserting no id is in two places."""
        found: dict[str, str] = {}
        sp = self.spool
        dirs = (sp.root, sp.inflight_dir, sp.done_dir, sp.quarantine_dir)
        for where, d in zip(WHERE, dirs):
            for f in os.listdir(d):
                if f.startswith("req-") and f.endswith(".json") and (
                    not f.endswith(".report.json")
                ):
                    assert f[:-5] not in found, f"{f} in two directories"
                    found[f[:-5]] = where
        return found

    def survives(self, fault, op) -> bool:
        """Run ``op`` with ``fault`` armed.  False if the process died:
        a fresh Spool is then open on the same directory and the model
        re-read from what the dead one left (nothing acknowledged may
        be missing)."""
        self.os.arm(fault)
        try:
            op()
        except Crash:
            self.os.revive()
            self.open()
            disk = self.on_disk()
            assert set(self.where) <= set(disk), "a submitted id vanished"
            self.where = disk
            for rid, where in disk.items():
                # a bump died before or after its rename; a retire that
                # died between its two renames had its sidecar put back
                n = self.spool.attempts(rid + ".json")
                old = self.attempts.get(rid, 0)
                assert n in ((old, old + 1) if where == "inflight" else (0,))
                self.attempts[rid] = n
            return False
        self.os.revive()
        return True

    def ids(self, where) -> list:
        return sorted(r for r, w in self.where.items() if w == where)

    def pick(self, where, i) -> str:
        ids = self.ids(where)
        return ids[i % len(ids)]

    # ------------------------------------------------------------ rules

    @rule(fault=FAULTS)
    def submit(self, fault):
        got = []
        if self.survives(
            fault, lambda: got.append(self.spool.submit(spooled()))
        ):
            assert got[0] not in self.where, "id reused"
            self.where[got[0]] = "pending"

    @rule(fault=FAULTS)
    def claim(self, fault):
        if self.survives(fault, self.spool.claim):
            for rid in self.ids("pending"):
                self.where[rid] = "inflight"

    @precondition(lambda self: self.ids("inflight"))
    @rule(fault=FAULTS, i=PICK)
    def bump(self, fault, i):
        rid = self.pick("inflight", i)
        got = []
        if self.survives(
            fault,
            lambda: got.append(self.spool.bump_attempts(rid + ".json")),
        ):
            self.attempts[rid] = self.attempts.get(rid, 0) + 1
            assert got[0] == self.attempts[rid]

    @precondition(lambda self: self.ids("inflight"))
    @rule(fault=FAULTS, i=PICK)
    def complete(self, fault, i):
        rid = self.pick("inflight", i)

        def op():  # the order serve keeps: result first, then retire
            atomic_write(
                os.path.join(self.out, rid + ".npz"),
                lambda f: f.write("result"),
            )
            self.spool.complete(rid + ".json")

        if self.survives(fault, op):
            self.where[rid] = "done"

    @precondition(lambda self: self.ids("inflight"))
    @rule(fault=FAULTS, i=PICK)
    def quarantine(self, fault, i):
        rid = self.pick("inflight", i)
        if self.survives(
            fault,
            lambda: self.spool.quarantine(
                rid + ".json", {"id": rid, "stage": "solve", "error": "x"}
            ),
        ):
            self.where[rid] = "quarantine"
            assert os.path.exists(os.path.join(
                self.spool.quarantine_dir, rid + ".report.json"
            ))

    @rule()
    def drain(self):
        """Recovery: a clean server drains whatever state it finds."""
        serve(self.spool, self.out, self.scheduler)
        # the invariants check the disk against this: everything that
        # was pending or claimed now has its one disposition
        for rid in self.ids("pending") + self.ids("inflight"):
            self.where[rid] = "done"
        # one result file per id at most (an id names its file), and
        # none for an id nobody submitted
        results = {f[:-4] for f in os.listdir(self.out) if f.endswith(".npz")}
        assert results <= set(self.where)

    # ------------------------------------------------------- invariants

    @invariant()
    def every_id_is_in_exactly_one_place(self):
        assert self.on_disk() == self.where

    @invariant()
    def done_implies_a_result(self):
        for rid in self.ids("done"):
            assert os.path.exists(os.path.join(self.out, rid + ".npz"))

    @invariant()
    def inflight_holds_claimed_requests_and_their_sidecars_only(self):
        claimed = {rid + ".json" for rid in self.ids("inflight")}
        assert set(self.spool.inflight()) == claimed
        for f in os.listdir(self.spool.inflight_dir):
            # a submitter's .tmp is never claimed; what else is here
            # is a sidecar (or its .tmp) of a request that still is
            assert f in claimed or (
                f.split(".attempts")[0] in claimed
            ), f"stray {f} in inflight/"

    @invariant()
    def every_sidecar_sits_next_to_its_request(self):
        sp = self.spool
        for d in (sp.root, sp.inflight_dir, sp.done_dir, sp.quarantine_dir):
            names = set(os.listdir(d))
            for f in names:
                if f.endswith(".attempts"):
                    assert f[: -len(".attempts")] in names, (
                        f"orphan {f} in {d}"
                    )


TestSpoolStateful = SpoolModel.TestCase
TestSpoolStateful.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)


@pytest.mark.parametrize("after", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "op", ["submit", "claim", "bump", "complete", "quarantine"]
)
def test_one_crash_at_every_mutation_of_every_operation(op, k, after):
    # the exhaustive companion of the random walk: from one canonical
    # state (a pending request, a claimed one on its second attempt),
    # die at each mutation each operation makes, before and after it
    m = SpoolModel()
    try:
        m.submit(None)
        m.claim(None)
        m.bump(None, 0)
        m.submit(None)
        args = (() if op in ("submit", "claim") else (0,))
        getattr(m, op)((k, after), *args)
        m.every_id_is_in_exactly_one_place()
        m.done_implies_a_result()
        m.inflight_holds_claimed_requests_and_their_sidecars_only()
        m.every_sidecar_sits_next_to_its_request()
    finally:
        m.teardown()  # recovery drain: one disposition, one .npz each


# ------------------------------------------------------ the submit race


def test_racing_submitters_get_two_ids(tmp_path, monkeypatch):
    spool = Spool(tmp_path)
    real_link = os.link
    raced = []

    def link(src, dst):
        # between this submitter's id choice and its publish, another
        # one (that counted the same spool state) publishes the name
        if not raced:
            raced.append(dst)
            with open(dst, "w") as f:
                f.write("{}")
        real_link(src, dst)

    monkeypatch.setattr(spool_mod.os, "link", link)
    first = spool.submit(spooled())
    second = spool.submit(spooled())
    # os.replace let the loser overwrite the winner at the parent commit
    assert raced == [str(tmp_path / "req-000000.json")]
    assert (first, second) == ("req-000001", "req-000002")
    assert (tmp_path / "req-000000.json").read_text() == "{}"
    assert not list(tmp_path.glob("*.tmp"))


def test_concurrent_submitters_never_share_an_id(tmp_path):
    spool = Spool(tmp_path)
    ids, errors = [], []

    def work():
        try:
            mine = [spool.submit({"t_end": 1.0}) for _ in range(25)]
            ids.extend(mine)
        except Exception as e:  # pragma: no cover - the failure report
            errors.append(e)

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside submit
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(ids) == len(set(ids)) == 200
    assert len(list(tmp_path.glob("req-*.json"))) == 200


def test_stale_or_missing_hint_is_harmless(tmp_path):
    spool = Spool(tmp_path)
    assert spool.submit({}) == "req-000000"
    assert (tmp_path / "next-id").read_text() == "1"
    # stale: behind by a few ids, ahead of nothing served yet
    (tmp_path / "next-id").write_text("0")
    assert spool.submit({}) == "req-000001"
    # missing, with requests retired to done/: ids are never reused
    spool.recover()
    spool.claim()
    spool.complete("req-000000.json")
    os.remove(tmp_path / "next-id")
    assert spool.submit({}) == "req-000002"
    # torn
    (tmp_path / "next-id").write_text("")
    assert spool.submit({}) == "req-000003"
    assert spool.inflight() == ["req-000001.json"]


def test_hint_ahead_of_the_spool_skips_ids_and_never_repeats(tmp_path):
    spool = Spool(tmp_path)
    assert [spool.submit({}) for _ in range(2)] == [
        "req-000000", "req-000001"
    ]
    # ahead (copied in with a spool, or edited by hand): the probe
    # starts there
    (tmp_path / "next-id").write_text("7")
    ids = [spool.submit({}) for _ in range(3)]
    assert ids == ["req-000007", "req-000008", "req-000009"]
    assert (tmp_path / "next-id").read_text() == "10"
    # missing again: the probe counts five requests and walks through
    # the gap, but never onto an id already given out
    os.remove(tmp_path / "next-id")
    more = [spool.submit({}) for _ in range(6)]
    assert more == [f"req-{i:06d}" for i in (5, 6, 10, 11, 12, 13)]
    assert len(set(ids + more)) == 9
