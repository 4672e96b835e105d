"""Unit tests for presigned URLs."""

import pytest

from repro.errors import ExpiredToken, NoSuchKey, SignatureMismatch
from repro.storage import ObjectStore
from repro.storage.presign import PresignSigner


@pytest.fixture
def store(sim):
    s = ObjectStore(sim)
    s.create_bucket("builds")
    s.put_object("builds", "job-1/build.tar.bz2", b"archive")
    return s


class TestPresign:
    def test_get_roundtrip(self, store):
        token = store.presign_get("builds", "job-1/build.tar.bz2")
        assert store.redeem_get(token).data == b"archive"

    def test_expired_token_rejected(self, sim, store):
        token = store.presign_get("builds", "job-1/build.tar.bz2",
                                  expires_in=100.0)
        sim._now = 101.0
        with pytest.raises(ExpiredToken):
            store.redeem_get(token)

    def test_tampered_token_rejected(self, store):
        token = store.presign_get("builds", "job-1/build.tar.bz2")
        with pytest.raises(SignatureMismatch):
            store.redeem_get(token[:-4] + "AAAA")
        with pytest.raises(SignatureMismatch):
            store.redeem_get("garbage")

    def test_method_confusion_rejected(self, store, sim):
        signer = PresignSigner(b"repro-object-store", clock=lambda: sim.now)
        put_token = signer.sign("PUT", "builds", "job-1/build.tar.bz2",
                                sim.now + 60.0)
        with pytest.raises(SignatureMismatch):
            store.redeem_get(put_token)

    def test_presign_get_requires_existing_object(self, store):
        with pytest.raises(NoSuchKey):
            store.presign_get("builds", "ghost")

    def test_different_stores_tokens_dont_cross(self, sim, store):
        other = ObjectStore(sim)
        other._signer = PresignSigner(b"other-secret", clock=lambda: sim.now)
        other.create_bucket("builds")
        other.put_object("builds", "job-1/build.tar.bz2", b"x")
        token = other.presign_get("builds", "job-1/build.tar.bz2")
        with pytest.raises(SignatureMismatch):
            store.redeem_get(token)
