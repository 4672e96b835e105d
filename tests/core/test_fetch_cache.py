"""Worker chunk-fetch-cache eviction accounting: shared chunks, padding."""

from types import SimpleNamespace

import pytest

from repro.core import worker as worker_module
from repro.core.system import RaiSystem

pytestmark = pytest.mark.buildcache


@pytest.fixture
def worker_with(monkeypatch):
    """A worker whose fetch cache holds ``budget`` bytes."""
    def make(budget):
        monkeypatch.setattr(worker_module, "FETCH_CACHE_BYTES", budget)
        return RaiSystem.standard(num_workers=1, seed=51).workers[0]
    return make


def _chunked(etag, chunks, padding=0):
    """A stand-in for a ChunkedObject: (digest, size) chunk list."""
    manifest = SimpleNamespace(
        chunks=[SimpleNamespace(digest=d, size=s) for d, s in chunks])
    return SimpleNamespace(manifest=manifest, etag=etag,
                           padding_bytes=padding)


def _plain(etag, size):
    return SimpleNamespace(manifest=None, etag=etag, size=size,
                           padding_bytes=0)


class TestSharedChunkAccounting:
    def test_shared_chunks_counted_once(self, worker_with):
        worker = worker_with(budget=10_000)
        a = _chunked("etag-a", [("c1", 100), ("c2", 200)])
        b = _chunked("etag-b", [("c1", 100), ("c3", 300)])
        assert worker._fetch_transfer_bytes(a) == 300
        # c1 is already resident: only c3 moves.
        assert worker._fetch_transfer_bytes(b) == 300
        stats = worker.fetch_cache_stats()
        assert stats["entries"] == 3          # c1, c2, c3 — c1 held once
        assert stats["bytes"] == 600
        assert stats["hit_bytes"] == 100
        assert stats["miss_bytes"] == 600
        assert stats["evictions"] == 0

    def test_padding_tracked_as_pseudo_entry(self, worker_with):
        worker = worker_with(budget=10_000)
        obj = _chunked("etag-p", [("c1", 100)], padding=50)
        assert worker._fetch_transfer_bytes(obj) == 150
        assert "etag-p:padding" in worker._fetch_cache
        # Same object again: chunk and padding both hit.
        assert worker._fetch_transfer_bytes(obj) == 0
        assert worker.fetch_cache_stats()["hit_bytes"] == 150

    def test_eviction_keeps_byte_accounting_exact(self, worker_with):
        worker = worker_with(budget=500)
        worker._fetch_transfer_bytes(
            _chunked("e1", [("c1", 200), ("c2", 200)]))
        assert worker.fetch_cache_stats()["bytes"] == 400
        # 300 more bytes blow the 500 budget: the LRU entry (c1) evicts,
        # and exactly its 200 bytes come off the occupancy counter.
        worker._fetch_transfer_bytes(_chunked("e2", [("c3", 300)]))
        stats = worker.fetch_cache_stats()
        assert stats["bytes"] == sum(worker._fetch_cache.values())
        assert stats["bytes"] <= 500
        assert stats["evictions"] == 1
        assert set(worker._fetch_cache) == {"c2", "c3"}

    def test_evicted_chunk_refetches_and_recounts(self, worker_with):
        worker = worker_with(budget=250)
        worker._fetch_transfer_bytes(_chunked("e1", [("c1", 200)]))
        worker._fetch_transfer_bytes(_chunked("e2", [("c2", 200)]))  # evicts c1
        assert "c1" not in worker._fetch_cache
        # c1 must transfer again — the earlier hit path is gone.
        assert worker._fetch_transfer_bytes(
            _chunked("e1", [("c1", 200)])) == 200
        stats = worker.fetch_cache_stats()
        assert stats["hit_bytes"] == 0
        assert stats["miss_bytes"] == 600
        assert stats["evictions"] == 2

    def test_shared_chunk_eviction_affects_both_objects(self, worker_with):
        """A chunk shared by two manifests is one LRU entry: evicting it
        makes *both* objects pay transfer again."""
        worker = worker_with(budget=400)
        a = _chunked("ea", [("shared", 300)])
        b = _chunked("eb", [("shared", 300), ("own", 50)])
        worker._fetch_transfer_bytes(a)
        assert worker._fetch_transfer_bytes(b) == 50
        # Blow the budget so "shared" (LRU order: shared, own) evicts.
        worker._fetch_transfer_bytes(_chunked("ec", [("big", 350)]))
        assert "shared" not in worker._fetch_cache
        assert worker._fetch_transfer_bytes(a) == 300
        assert worker.fetch_cache_stats()["bytes"] == \
            sum(worker._fetch_cache.values())

    def test_plain_object_keyed_by_etag(self, worker_with):
        worker = worker_with(budget=1_000)
        assert worker._fetch_transfer_bytes(_plain("pe", 400)) == 400
        assert worker._fetch_transfer_bytes(_plain("pe", 400)) == 0
        assert worker.fetch_cache_stats()["hit_rate"] == 0.5
