"""An upload's manifest is checked where its bytes cross the wire.

``put_object(dedup=True, manifest=...)`` takes the uploader's chunking
instead of re-chunking the payload.  The store hashes only the chunks it
does not hold (the bytes that travel, as in git's or restic's protocol)
and checks each against the manifest's digest, and the chunk sizes
against the payload.  A manifest that lies about a fresh chunk or about
its size is refused with ``StorageError``, and the put leaves nothing
behind: no chunk, no reference, no object, no WAL record.
"""

import random

import pytest

import repro.storage.chunkstore as chunkstore_module
from repro.core.system import RaiSystem
from repro.errors import StorageError
from repro.storage.chunkstore import CHUNK_BYTES, ChunkRef, Manifest

BUCKET = "rai-uploads"
META = {"team": "t", "username": "s"}


def _payload(seed: int, chunks: float = 3.5) -> bytes:
    return random.Random(seed).randbytes(int(chunks * CHUNK_BYTES))


def _state(system) -> tuple:
    store = system.storage.chunk_store
    return (dict(store._chunks), dict(store._refs), store.stats(),
            store.total_ingested_bytes,
            sorted(system.storage.bucket(BUCKET).objects),
            system.durability.wal.records_appended,
            system.durability.wal.size_bytes)


@pytest.fixture
def system(tmp_path):
    system = RaiSystem(seed=1)
    system.attach_durability(str(tmp_path / "dur"))
    # A first upload, so the store holds chunks a liar could point at.
    base = _payload(1)
    system.storage.put_object(BUCKET, "s/base.tar", base, metadata=META,
                              dedup=True, manifest=Manifest.from_bytes(base))
    return system


def _lie_about_a_fresh_chunk(data: bytes) -> Manifest:
    honest = Manifest.from_bytes(data)
    chunks = list(honest.chunks)
    chunks[1] = ChunkRef(chunkstore_module.hash_chunk(b"not these bytes"),
                         chunks[1].size)
    return Manifest(honest.chunk_size, chunks)


def _lie_about_the_size(data: bytes) -> Manifest:
    honest = Manifest.from_bytes(data)
    last = honest.chunks[-1]
    return Manifest(honest.chunk_size,
                    honest.chunks[:-1] + [ChunkRef(last.digest,
                                                   last.size + 1)])


def _empty_chunk(data: bytes) -> Manifest:
    honest = Manifest.from_bytes(data)
    return Manifest(honest.chunk_size,
                    honest.chunks + [ChunkRef(honest.chunks[0].digest, 0)])


@pytest.mark.parametrize("lie", [_lie_about_a_fresh_chunk,
                                 _lie_about_the_size, _empty_chunk])
@pytest.mark.parametrize("shared", [False, True])
def test_a_dishonest_manifest_is_refused_and_stores_nothing(
        system, lie, shared):
    data = _payload(2)
    if shared:      # most chunks already held: only the fresh one is read
        data = _payload(1)[:2 * CHUNK_BYTES] + data[2 * CHUNK_BYTES:]
    before = _state(system)
    with pytest.raises(StorageError):
        system.storage.put_object(BUCKET, "s/job.tar", data, metadata=META,
                                  dedup=True, manifest=lie(data))
    assert _state(system) == before
    audit = system.storage.rebuild_chunk_refcounts()
    assert audit["orphaned_chunks"] == 0


def test_the_store_hashes_only_the_chunks_it_lacks(system, monkeypatch):
    hashed = []
    hash_chunk = chunkstore_module.hash_chunk
    monkeypatch.setattr(chunkstore_module, "hash_chunk",
                        lambda chunk: hashed.append(len(chunk))
                        or hash_chunk(chunk))
    # Two held chunks, then new ones.
    data = _payload(1)[:2 * CHUNK_BYTES] + _payload(3, 1.5)
    manifest = Manifest.from_bytes(data)
    hashed.clear()
    obj = system.storage.put_object(BUCKET, "s/job.tar", data,
                                    metadata=META, dedup=True,
                                    manifest=manifest)
    assert hashed == [CHUNK_BYTES, CHUNK_BYTES // 2]
    assert obj.manifest is manifest and obj.data == data


def test_without_a_manifest_the_store_chunks_the_bytes_itself(system):
    data = _payload(4)
    obj = system.storage.put_object(BUCKET, "s/plain.tar", data,
                                    metadata=META, dedup=True)
    assert obj.manifest.digest == Manifest.from_bytes(data).digest
    assert obj.data == data
