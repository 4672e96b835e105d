"""Unit tests for credentials and the key store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auth import KeyStore, generate_key
from repro.auth.keys import _KEY_ALPHABET, KEY_LENGTH
from repro.errors import InvalidCredentials


class TestGenerateKey:
    def test_length_and_alphabet(self):
        key = generate_key(np.random.default_rng(0))
        assert len(key) == 26
        assert key.isalnum()

    def test_deterministic_under_seed(self):
        a = generate_key(np.random.default_rng(5))
        b = generate_key(np.random.default_rng(5))
        assert a == b

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 4))
    def test_same_draws_as_a_per_character_join(self, seed, draws):
        """The gather is byte-identical to joining one character per draw,
        and consumes the generator exactly as that did."""
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            idx = slow.integers(0, len(_KEY_ALPHABET), size=KEY_LENGTH)
            assert generate_key(fast) == "".join(_KEY_ALPHABET[i]
                                                 for i in idx)


class TestKeyStore:
    def test_issue_and_verify(self):
        store = KeyStore()
        cred = store.issue("student001", team="t1")
        assert store.verify_pair(cred.access_key, cred.secret_key) is cred
        assert cred.team == "t1"

    def test_wrong_secret_rejected(self):
        store = KeyStore()
        cred = store.issue("s")
        with pytest.raises(InvalidCredentials):
            store.verify_pair(cred.access_key, "wrong")

    def test_unknown_access_key_rejected(self):
        store = KeyStore()
        with pytest.raises(InvalidCredentials):
            store.lookup("nope")

    def test_reissue_revokes_old(self):
        """Lost-key recovery: new keys invalidate the old pair."""
        store = KeyStore()
        old = store.issue("s")
        new = store.issue("s")
        assert old.access_key != new.access_key
        with pytest.raises(InvalidCredentials):
            store.lookup(old.access_key)
        store.verify_pair(new.access_key, new.secret_key)

    def test_unique_keys_across_users(self):
        store = KeyStore()
        creds = [store.issue(f"s{i}") for i in range(50)]
        access = {c.access_key for c in creds}
        assert len(access) == 50

    def test_len_counts_users(self):
        store = KeyStore()
        store.issue("a")
        store.issue("b")
        store.issue("a")   # reissue, same user
        assert len(store) == 2
