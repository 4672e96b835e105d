"""Unit tests for the object store."""

import pytest

from repro.errors import (
    BucketAlreadyExists,
    NoSuchBucket,
    NoSuchKey,
)
from repro.storage import ObjectStore


@pytest.fixture
def store(sim):
    s = ObjectStore(sim)
    s.create_bucket("b")
    return s


class TestBuckets:
    def test_create_and_get(self, store):
        assert store.bucket("b").name == "b"

    def test_duplicate_create_raises(self, store):
        with pytest.raises(BucketAlreadyExists):
            store.create_bucket("b")

    def test_exist_ok(self, store):
        assert store.create_bucket("b", exist_ok=True) is store.bucket("b")

    def test_missing_bucket_raises(self, store):
        with pytest.raises(NoSuchBucket):
            store.bucket("ghost")


class TestObjects:
    def test_put_get_roundtrip(self, store):
        put = store.put_object("b", "k", b"data", metadata={"team": "t1"})
        got = store.get_object("b", "k")
        assert got.data == b"data"
        assert got.etag == put.etag
        assert got.metadata == {"team": "t1"}

    def test_get_missing_raises(self, store):
        with pytest.raises(NoSuchKey):
            store.get_object("b", "ghost")

    def test_etag_is_content_hash(self, store):
        a = store.put_object("b", "k1", b"same")
        b = store.put_object("b", "k2", b"same")
        c = store.put_object("b", "k3", b"different")
        assert a.etag == b.etag != c.etag

    def test_overwrite_replaces(self, store):
        store.put_object("b", "k", b"v1")
        store.put_object("b", "k", b"v2")
        assert store.get_object("b", "k").data == b"v2"

    def test_head_has_no_body(self, store):
        store.put_object("b", "k", b"12345")
        head = store.head_object("b", "k")
        assert head["size"] == 5
        assert "data" not in head

    def test_delete(self, store):
        store.put_object("b", "k", b"x")
        assert store.delete_object("b", "k") is True
        assert store.delete_object("b", "k") is False
        with pytest.raises(NoSuchKey):
            store.delete_object("b", "k", missing_ok=False)

    def test_padding_counts_in_size(self, store, sim):
        obj = store.put_object("b", "k", b"xx", padding_bytes=1000,
                               dedup=True)
        assert obj.size == 1002
        assert store.bucket("b").total_bytes == 1002
        assert len(store.get_object("b", "k").data) == 2

    def test_last_used_updates_on_get(self, store, sim):
        store.put_object("b", "k", b"x")
        sim._now = 100.0
        obj = store.get_object("b", "k")
        assert obj.last_used_at == 100.0

    def test_counters(self, store):
        # One put, one get: the bucket holds the object, the get reads it.
        store.put_object("b", "k", b"1234")
        assert store.get_object("b", "k").data == b"1234"
        assert store.total_objects == 1
        assert store.bucket("b").total_bytes == 4
