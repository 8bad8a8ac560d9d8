"""``repro.durable.atomic_write``: the one temporary → fsync → rename
write, and the two CRC-framed formats that go through it."""

import hashlib
import os
import stat

import numpy as np
import pytest

from repro import durable
from repro.durable import atomic_write
from repro.service.cache import load_artifact, save_artifact
from repro.solver.checkpoint import load_checkpoint, save_checkpoint


class Boom(Exception):
    pass


def _boom(*args):
    raise Boom


@pytest.mark.parametrize("exclusive", [False, True])
def test_publishes_the_whole_file_and_no_temporary(tmp_path, exclusive):
    path = tmp_path / "out.json"
    atomic_write(str(path), lambda f: f.write("new"), exclusive=exclusive)
    assert path.read_text() == "new"
    assert not list(tmp_path.glob("*.tmp"))
    if exclusive:
        with pytest.raises(FileExistsError):
            atomic_write(str(path), lambda f: f.write("x"), exclusive=True)
        assert path.read_text() == "new"
        assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("stage", ["write", "fsync", "publish"])
@pytest.mark.parametrize("exclusive", [False, True])
def test_a_failed_write_leaves_the_old_file_and_no_temporary(
    tmp_path, monkeypatch, exclusive, stage
):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old contents")

    def write(f):
        f.write(b"new")
        if stage == "write":  # e.g. ENOSPC half-way through a save
            raise Boom

    if stage == "fsync":
        monkeypatch.setattr(durable.os, "fsync", _boom)
    elif stage == "publish":
        monkeypatch.setattr(
            durable.os, "link" if exclusive else "replace", _boom
        )
    with pytest.raises(Boom):
        atomic_write(str(path), write, mode="wb", exclusive=exclusive)
    assert path.read_bytes() == b"old contents"
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("exclusive", [False, True])
def test_the_directory_is_fsynced_after_the_rename(
    tmp_path, monkeypatch, exclusive
):
    """Without a directory fsync the rename itself can be lost in a
    power cut, leaving the old file (or none) behind a completed
    write."""
    events = []
    real_fsync = os.fsync
    publish = "link" if exclusive else "replace"
    real_publish = getattr(os, publish)

    def spy_fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", stat.S_ISDIR(st.st_mode), st.st_ino))
        real_fsync(fd)

    def spy_publish(src, dst):
        real_publish(src, dst)
        events.append(("publish",))

    monkeypatch.setattr(durable.os, "fsync", spy_fsync)
    monkeypatch.setattr(durable.os, publish, spy_publish)
    atomic_write(
        str(tmp_path / "out.json"), lambda f: f.write("new"),
        exclusive=exclusive,
    )
    after = events[events.index(("publish",)) + 1:]
    assert ("fsync", True, os.stat(tmp_path).st_ino) in after


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def test_checkpoint_bytes_are_unchanged(tmp_path):
    # the digest of the file save_checkpoint wrote with its own
    # tmp + fsync + rename code, before the write path was shared
    path = str(tmp_path / "a.ckpt")
    arrays = {
        "u": np.arange(12, dtype=float).reshape(4, 3),
        "mask": np.array([1, 0, 1], dtype=np.int64),
    }
    assert save_checkpoint(path, 6, arrays, {"next_k": 7}) == 348
    assert _sha256(path) == (
        "db2b8c175157d1fff26733d15472f8cec7395158f791aa02c52107a8c6d39889"
    )
    ck = load_checkpoint(path)
    for name, a in arrays.items():
        assert np.array_equal(ck.arrays[name], a)


def test_cache_artifact_bytes_are_unchanged(tmp_path):
    path = str(tmp_path / "artifact-k.bin")
    artifact = {"v": [1, 2, 3], "name": "basin"}
    save_artifact(path, "k", artifact)
    assert _sha256(path) == (
        "eaab11f2afaa695d99d20a2690826d192fe94b8a536023ad4dd12a22580d6d8b"
    )
    assert load_artifact(path, "k") == artifact
