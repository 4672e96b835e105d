"""Unit tests for HMAC request signing."""

import pytest

from repro.auth import sign_request, verify_request
from repro.errors import SignatureMismatch


class TestSigning:
    def test_roundtrip(self):
        sig = sign_request("secret", {"job": 1}, timestamp=100.0)
        verify_request("secret", {"job": 1}, 100.0, sig)

    def test_wrong_secret_fails(self):
        sig = sign_request("secret", {"job": 1}, 100.0)
        with pytest.raises(SignatureMismatch):
            verify_request("other", {"job": 1}, 100.0, sig)

    def test_tampered_payload_fails(self):
        sig = sign_request("secret", {"job": 1}, 100.0)
        with pytest.raises(SignatureMismatch):
            verify_request("secret", {"job": 2}, 100.0, sig)

    def test_tampered_timestamp_fails(self):
        sig = sign_request("secret", {"job": 1}, 100.0)
        with pytest.raises(SignatureMismatch):
            verify_request("secret", {"job": 1}, 101.0, sig)

    def test_key_order_does_not_matter(self):
        sig = sign_request("s", {"a": 1, "b": 2}, 0.0)
        verify_request("s", {"b": 2, "a": 1}, 0.0, sig)
