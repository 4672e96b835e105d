"""The checkpoint streams the chunk store to disk.

``write_snapshot`` writes one section, and one chunk, at a time, so a
checkpoint never holds the chunk store's bytes a second time (as a
base64 dict, a JSON string, or its encoding).  The file stays
byte-identical to the compact ``json.dumps`` of the base64 form, so
every snapshot written before streaming still loads.  A write that
fails leaves the previous checkpoint and the WAL as they were.
"""

import base64
import errno
import json
import os
import random
import shutil
import tracemalloc

import pytest

from repro.core.system import RaiSystem
from repro.durability import snapshot as snapshot_codec
from repro.durability.snapshot import capture, load_snapshot, write_snapshot
from repro.obs.events import EventType

pytestmark = pytest.mark.durability

MiB = 1024 * 1024

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def _deployment(path, archive_bytes: int = 0) -> RaiSystem:
    """A journaling deployment with two graded jobs and ``archive_bytes``
    of distinct (random) archived chunks."""
    system = RaiSystem.standard(num_workers=1, seed=5)
    system.attach_durability(str(path))
    clients = []
    for i in range(2):
        client = system.new_client(team=f"team{i}")
        client.stage_project(FILES)
        clients.append(client)
    system.run_all(c.submit() for c in clients)
    rng = random.Random(5)
    for i in range(archive_bytes // (64 * 1024)):
        system.storage.put_object("rai-uploads", f"archive/{i}.tar",
                                  rng.randbytes(64 * 1024),
                                  metadata={"team": "team0"}, dedup=True)
    return system


def _base64_form(snap: dict) -> dict:
    """``snap`` as a snapshot file holds it: chunks as base64 text."""
    chunks = snap["storage"]["chunks"]
    snap["storage"]["chunks"] = {
        digest: base64.b64encode(blob).decode("ascii")
        for digest, blob in chunks.items()}
    return snap


class TestStreamedCheckpoint:
    def test_peak_allocation_stays_below_the_chunk_bytes(self, tmp_path):
        system = _deployment(tmp_path / "dur",
                             archive_bytes=2 * MiB + MiB // 2)
        raw = system.storage.chunk_store.unique_bytes
        assert raw >= 2 * MiB
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            info = system.checkpoint()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert info["bytes"] > raw   # every chunk went to disk
        assert peak < raw, f"checkpoint peaked at {peak} B for {raw} B"

    def test_file_equals_compact_json_of_the_base64_form(self, tmp_path):
        system = _deployment(tmp_path / "dur", archive_bytes=256 * 1024)
        expected = json.dumps(_base64_form(capture(system)),
                              separators=(",", ":"))
        system.checkpoint()
        path = system.durability.snapshot_path
        with open(path) as fh:
            assert fh.read() == expected
        assert load_snapshot(path) == json.loads(expected)

    def test_capture_holds_the_stores_chunks_not_copies(self, tmp_path):
        system = _deployment(tmp_path / "dur")
        held = system.storage.chunk_store._chunks
        chunks = capture(system)["storage"]["chunks"]
        assert chunks.keys() == held.keys()
        assert all(chunks[digest] is held[digest] for digest in held)

    def test_written_bytes_are_the_file_size(self, tmp_path):
        system = _deployment(tmp_path / "dur", archive_bytes=128 * 1024)
        info = system.checkpoint()
        event = system.events.query(type=EventType.DURABILITY_SNAPSHOT)[-1]
        size = os.path.getsize(system.durability.snapshot_path)
        assert info["bytes"] == event.fields["bytes"] == size
        # A dict written directly counts the same way.
        other = str(tmp_path / "copy.json")
        assert write_snapshot(other, capture(system)) == \
            os.path.getsize(other)


class _DiskFull:
    """A text file that takes ``room`` characters, then fails the way a
    full disk does (what fits reaches the file first)."""

    def __init__(self, fh, room: int):
        self._fh = fh
        self._room = room

    def write(self, text: str) -> int:
        if len(text) > self._room:
            self._fh.write(text[:self._room])
            self._room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self._room -= len(text)
        return self._fh.write(text)

    def flush(self):
        self._fh.flush()

    def fileno(self):
        return self._fh.fileno()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _fail_midway(monkeypatch, room: int) -> list:
    """Make the snapshot writer's file fill up after ``room`` characters;
    returns the temp paths it opened."""
    opened = []

    def disk_full_open(path, mode="r"):
        opened.append(path)
        return _DiskFull(open(path, mode), room)

    monkeypatch.setattr(snapshot_codec, "open", disk_full_open,
                        raising=False)
    return opened


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestFailedCheckpoint:
    def test_previous_snapshot_and_wal_survive(self, tmp_path, monkeypatch):
        path = tmp_path / "dur"
        system = _deployment(path, archive_bytes=128 * 1024)
        snapshot_file = system.durability.snapshot_path
        wal_file = os.path.join(str(path), "wal.log")
        before = tmp_path / "before"
        shutil.copytree(path, before)
        snapshot_bytes, wal_bytes = _read(snapshot_file), _read(wal_file)

        opened = _fail_midway(monkeypatch, room=64 * 1024)
        with pytest.raises(OSError):
            system.checkpoint()
        monkeypatch.undo()
        assert opened == [snapshot_file + ".tmp"]
        assert not os.path.exists(snapshot_file + ".tmp")
        assert _read(snapshot_file) == snapshot_bytes
        assert _read(wal_file) == wal_bytes
        assert system.durability.active
        assert system.durability.checkpoints_taken == 1  # attach's only

        system.crash_stop()
        after_failure = capture(RaiSystem.restore(str(path), num_workers=0))
        from_before = capture(RaiSystem.restore(str(before), num_workers=0))
        # Each restore logs its own wall-clock timings; every other
        # section is equal.
        for section in set(from_before) - {"events"}:
            assert after_failure[section] == from_before[section], section

    def test_journaling_goes_on(self, tmp_path, monkeypatch):
        path = tmp_path / "dur"
        system = _deployment(path)
        _fail_midway(monkeypatch, room=4096)
        with pytest.raises(OSError):
            system.checkpoint()
        monkeypatch.undo()
        client = system.new_client(team="late")
        client.stage_project(FILES)
        system.run(client.submit())
        live = capture(system)
        assert len(live["db"]["submissions"]["docs"]) == 3
        system.crash_stop()

        restored = capture(RaiSystem.restore(str(path), num_workers=0))
        assert restored["db"]["submissions"]["docs"] == \
            live["db"]["submissions"]["docs"]
        assert restored["storage"]["chunks"] == live["storage"]["chunks"]
        assert _etags(restored) == _etags(live)


def _etags(snap: dict) -> dict:
    return {(bucket["name"], obj["key"]): obj["etag"]
            for bucket in snap["storage"]["buckets"]
            for obj in bucket["objects"]}
