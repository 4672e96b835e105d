"""Content-addressed chunk store: dedup semantics and edge cases."""

import pytest

from repro.core.system import RaiSystem
from repro.durability.snapshot import capture, install
from repro.sim import Simulator
from repro.storage import (
    ChunkStore,
    ChunkedObject,
    LifecycleRule,
    Manifest,
    ObjectStore,
    split_chunks,
)
from repro.storage.chunkstore import (
    CHUNK_BYTES as C,
    deflate_chunk,
    inflate_chunk,
)
from repro.errors import StorageError


@pytest.fixture
def store():
    return ObjectStore(Simulator())


class TestManifest:
    def test_round_trip_and_digest_stability(self):
        data = bytes(range(256)) * (3 * C // 256)
        m = Manifest.from_bytes(data)
        again = Manifest.from_doc(m.to_doc())
        assert again.digest == m.digest
        assert again.total_size == len(data)
        assert [c.digest for c in again.chunks] == \
            [c.digest for c in m.chunks]

    def test_delta_identifies_changed_chunks_only(self):
        base = Manifest.from_bytes(b"a" * C + b"b" * C)
        edit = Manifest.from_bytes(b"a" * C + b"c" * C)
        delta = edit.delta(base)
        assert len(delta) == 1
        assert edit.delta(None) == list(edit.chunks)

    def test_split_chunks_validates(self):
        with pytest.raises(ValueError):
            split_chunks(b"xy", 0)


class TestDedupEdgeCases:
    def test_zero_byte_project(self, store):
        """An empty payload: zero chunks, assembles to b''."""
        store.create_bucket("b")
        obj = store.put_object("b", "empty", b"", dedup=True)
        assert isinstance(obj, ChunkedObject)
        assert len(obj.manifest) == 0
        assert obj.size == 0
        assert store.get_object("b", "empty").data == b""

    def test_single_chunk_project(self, store):
        """Payload smaller than one chunk: one chunk, full round trip."""
        store.create_bucket("b")
        obj = store.put_object("b", "tiny", b"hello", dedup=True)
        assert len(obj.manifest) == 1
        assert obj.data == b"hello"
        # A second identical upload stores nothing new.
        before = store.chunk_store.unique_bytes
        store.put_object("b", "tiny2", b"hello", dedup=True)
        assert store.chunk_store.unique_bytes == before

    def test_full_churn_has_no_dedup_win(self, store):
        """100% churn: every chunk is new, wire cost equals payload."""
        store.create_bucket("b")
        first = bytes(range(256)).ljust(256, b"\0")
        second = bytes(reversed(range(256)))
        store.put_object("b", "v1", first, dedup=True)
        m2 = Manifest.from_bytes(second)
        assert store.chunk_store.missing_bytes(m2) == len(second)
        manifest, fresh = store.chunk_store.store(second)
        assert len(fresh) == len(manifest)
        assert b"".join(inflate_chunk(fresh[ref.digest], ref.digest, ref.size)
                        for ref in manifest.chunks) == second

    def test_lifecycle_expiry_keeps_shared_chunks_alive(self, store):
        """Expiring one manifest must not break a live one sharing
        chunks (the refcount satellite)."""
        bucket = store.create_bucket("uploads")
        bucket.add_lifecycle_rule(LifecycleRule(expire_after=100.0,
                                                since="creation"))
        shared = b"S" * C + b"T" * C     # two distinct shared chunks
        old = store.put_object("uploads", "old", shared + b"X" * C,
                               dedup=True)
        store.sim.run(until=60.0)
        live = store.put_object("uploads", "live", shared + b"Y" * C,
                                dedup=True)
        store.sim.run(until=120.0)   # 'old' past expiry, 'live' not
        removed = store.run_lifecycle_sweep()
        assert removed == ["uploads/old"]
        # The live object still assembles, including the shared prefix.
        assert store.get_object("uploads", "live").data == \
            shared + b"Y" * C
        # The old object's unshared chunk was actually freed.
        assert store.chunk_store.unique_bytes == 2 * C + C
        with pytest.raises(StorageError):
            store.chunk_store.assemble(old.manifest)
        assert live is not None

    def test_overwrite_releases_previous_manifest(self, store):
        store.create_bucket("b")
        store.put_object("b", "k", b"A" * C, dedup=True)
        store.put_object("b", "k", b"B" * C, dedup=True)
        assert store.chunk_store.unique_bytes == C
        assert store.get_object("b", "k").data == b"B" * C

    def test_overwrite_keeps_the_owner_base(self, store):
        store.create_bucket("b")
        meta = {"username": "s"}
        store.put_object("b", "k", b"v1" * C, metadata=meta, dedup=True)
        obj = store.put_object("b", "k", b"v2" * C, metadata=meta,
                               dedup=True)
        assert store.negotiate_base("b", "s") is obj.manifest

    def test_delete_object_releases_chunks(self, store):
        store.create_bucket("b")
        store.put_object("b", "k", bytes(range(200)), dedup=True)
        assert store.chunk_store.unique_bytes == 200
        store.delete_object("b", "k")
        assert store.chunk_store.unique_bytes == 0
        assert store.chunk_store.unique_chunks == 0

    def test_dedup_object_accounting_matches_plain_put(self, store):
        """Sizes/etags/bucket bytes are identical either way; only the
        real memory differs."""
        store.create_bucket("b")
        data = bytes(range(256)) + bytes(range(44))
        plain = store.put_object("b", "plain", data)
        chunked = store.put_object("b", "chunked", data, dedup=True)
        assert chunked.size == plain.size
        assert chunked.etag == plain.etag
        assert chunked.head()["size"] == plain.head()["size"]
        # Stats surface the sharing.
        stats = store.stats()
        assert stats["chunk_store"]["unique_bytes"] == 300
        assert stats["chunk_store"]["dedup_ratio"] == 1.0


class TestChunkStoreRefcounts:
    def test_release_is_per_reference_not_per_chunk(self):
        cs = ChunkStore()
        m1, _ = cs.store(b"a" * C)
        m2, fresh = cs.store(b"a" * C)
        assert fresh == {}
        assert cs.release(m1) == 0       # still referenced by m2
        assert cs.assemble(m2) == b"a" * C
        assert cs.release(m2) == C       # last reference frees
        assert cs.unique_chunks == 0

    def test_dedup_ratio_tracks_live_sharing(self):
        cs = ChunkStore()
        cs.store(bytes(range(30)))
        cs.store(bytes(range(30)))
        cs.store(bytes(range(30)))
        assert cs.dedup_ratio() == pytest.approx(3.0)


class TestDedupedBytes:
    def test_shared_chunks_count_once_and_survive_a_snapshot(self):
        """``deduped_bytes`` is the shared bytes a second upload did not
        store, and a restored deployment keeps the figure."""
        system = RaiSystem(seed=9)
        system.storage.create_bucket("b")
        shared = b"A" * C + b"B" * C
        system.storage.put_object("b", "one", shared + b"C" * C, dedup=True)
        system.storage.put_object("b", "two", shared + b"D" * C, dedup=True)
        assert system.storage.chunk_store.stats()["deduped_bytes"] == \
            len(shared)
        restored = RaiSystem(seed=9)
        install(restored, capture(system))
        assert restored.storage.chunk_store.stats()["deduped_bytes"] == \
            len(shared)


class TestDeflatedChunks:
    def test_each_chunk_is_held_deflated_and_counted_raw(self):
        cs = ChunkStore()
        data = b"A" * C + b"B" * C + b"tail"
        manifest, fresh = cs.store(data)
        assert fresh == {ref.digest: deflate_chunk(data[i * C:(i + 1) * C])
                         for i, ref in enumerate(manifest.chunks)}
        assert cs._chunks == fresh
        assert sum(map(len, fresh.values())) < len(data) // 10
        assert cs.unique_bytes == len(data)
        assert cs.assemble(manifest) == data
        assert cs.release(manifest) == len(data)
        assert cs.unique_bytes == 0

    @pytest.mark.parametrize("damage", [
        b"not deflate",                  # does not inflate
        deflate_chunk(b"short"),         # inflates to the wrong length
    ])
    def test_damaged_bytes_raise_storage_error(self, damage):
        cs = ChunkStore()
        manifest, _ = cs.store(b"A" * C + b"B" * C)
        cs._chunks[manifest.chunks[1].digest] = damage
        with pytest.raises(StorageError, match="damaged"):
            cs.assemble(manifest)
        carried = {manifest.chunks[0].digest: damage}
        with pytest.raises(StorageError, match="damaged"):
            cs.assemble(manifest, carried)
        with pytest.raises(StorageError, match="damaged"):
            cs.rebuild_refcounts([manifest])
