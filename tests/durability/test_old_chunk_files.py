"""Durability files written when chunks were held raw still restore.

Before chunks were deflated at ingest, a snapshot's storage section held
raw base64 ``chunks`` with no ``chunk_codec``, a dedup ``st_put`` carried
raw base64 ``chunks``, and an older one the whole object in ``data``.
Those files are built by hand here.  Restored, they give the objects,
etags, chunk bytes and accounting the same puts give a live store, and
the restore's own checkpoint is in the deflated form.  A snapshot chunk
that does not inflate to its manifest size refuses the restore with a
``DurabilityError``.
"""

import base64
import json
import random

import pytest

from repro.core.system import RaiSystem
from repro.durability.snapshot import capture, load_snapshot, write_snapshot
from repro.errors import DurabilityError
from repro.storage.chunkstore import (
    CHUNK_BYTES as C,
    CHUNK_CODEC,
    deflate_chunk,
    hash_chunk,
    split_chunks,
)
from repro.storage.objects import compute_etag

pytestmark = pytest.mark.durability

BUCKET = "rai-uploads"
META = {"team": "t", "username": "s"}
FIRST = random.Random(7).randbytes(3 * C + 100)
SHARED = FIRST[:2 * C] + random.Random(8).randbytes(C + 50)
WHOLE = b"ab" * 3000


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _manifest(payload: bytes) -> list:
    return [[hash_chunk(c), len(c)] for c in split_chunks(payload, C)]


def _live() -> RaiSystem:
    system = RaiSystem(seed=1)
    for key, payload in (("s/first.tar", FIRST), ("s/shared.tar", SHARED),
                         ("s/whole.tar", WHOLE)):
        system.storage.put_object(BUCKET, key, payload, metadata=META,
                                  dedup=True)
    return system


def _old_storage_section(buckets: list) -> dict:
    """A storage section holding ``FIRST`` with raw base64 chunks."""
    objects = [{"key": "s/first.tar", "etag": compute_etag(FIRST),
                "metadata": META, "created_at": 0.0, "last_used_at": 0.0,
                "padding_bytes": 0, "kind": "chunked",
                "manifest": {"chunk_size": C, "total_size": len(FIRST),
                             "chunks": _manifest(FIRST)}}]
    return {
        "chunks": {hash_chunk(c): _b64(c) for c in split_chunks(FIRST, C)},
        "chunk_totals": {"ingested": len(FIRST), "deduped": 0},
        "buckets": [dict(b, objects=objects if b["name"] == BUCKET else [])
                    for b in buckets],
    }


def _old_put(key: str, **body) -> dict:
    return {"op": "st_put", "t": 0.0, "bucket": BUCKET, "key": key, **body,
            "metadata": META, "padding": 0, "dedup": True,
            "file_digests": None}


def _write_old_directory(path) -> None:
    system = RaiSystem(seed=1)
    system.attach_durability(str(path))
    snap = capture(system)
    snap["storage"] = _old_storage_section(snap["storage"]["buckets"])
    write_snapshot(system.durability.snapshot_path, snap)
    held = set(snap["storage"]["chunks"])
    system.durability.wal.append(_old_put(
        "s/shared.tar", manifest=_manifest(SHARED),
        etag=compute_etag(SHARED),
        chunks={hash_chunk(c): _b64(c) for c in split_chunks(SHARED, C)
                if hash_chunk(c) not in held}))
    system.durability.wal.append(_old_put("s/whole.tar", data=_b64(WHOLE)))
    system.crash_stop()


def _objects(system) -> dict:
    return {key: (obj.etag, obj.manifest.to_doc(), obj.data)
            for key, obj in system.storage.bucket(BUCKET).objects.items()}


class TestRawChunkFiles:
    def test_restore_equals_the_live_store(self, tmp_path):
        path = tmp_path / "dur"
        _write_old_directory(path)
        restored = RaiSystem.restore(str(path), num_workers=0)
        live = _live()
        assert restored.durability.replay_anomalies == 0
        assert _objects(restored) == _objects(live)
        assert {k: o[0] for k, o in _objects(restored).items()} == {
            "s/first.tar": compute_etag(FIRST),
            "s/shared.tar": compute_etag(SHARED),
            "s/whole.tar": compute_etag(WHOLE)}
        chunk_store = restored.storage.chunk_store
        assert chunk_store.stats() == live.storage.chunk_store.stats()
        assert chunk_store._chunks == live.storage.chunk_store._chunks

    def test_the_restore_checkpoint_holds_deflated_chunks(self, tmp_path):
        path = tmp_path / "dur"
        _write_old_directory(path)
        restored = RaiSystem.restore(str(path), num_workers=0)
        storage = load_snapshot(restored.durability.snapshot_path)["storage"]
        assert storage["chunk_codec"] == CHUNK_CODEC
        raw = {hash_chunk(c): c for payload in (FIRST, SHARED, WHOLE)
               for c in split_chunks(payload, C)}
        assert {d: base64.b64decode(text)
                for d, text in storage["chunks"].items()} == \
            {d: deflate_chunk(c) for d, c in raw.items()}


class TestDamagedSnapshotChunk:
    @pytest.mark.parametrize("damage", [
        b"x" * C,                        # does not inflate
        deflate_chunk(b"y" * 10),        # inflates to the wrong length
    ])
    def test_restore_refuses_it(self, tmp_path, damage):
        path = tmp_path / "dur"
        system = _live()
        system.attach_durability(str(path))
        system.crash_stop()
        snapshot_path = system.durability.snapshot_path
        snap = load_snapshot(snapshot_path)
        digest = _manifest(FIRST)[0][0]
        snap["storage"]["chunks"][digest] = _b64(damage)
        with open(snapshot_path, "w") as fh:
            json.dump(snap, fh)
        with pytest.raises(DurabilityError, match=digest[:12]):
            RaiSystem.restore(str(path), num_workers=0)
