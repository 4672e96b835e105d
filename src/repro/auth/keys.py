"""Access/secret key pairs and the server-side key store."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import InvalidCredentials

#: Alphabet used by the paper's visible examples (Listing 3 keys are
#: base62ish with '-'); we stick to unambiguous base62.
_KEY_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
KEY_LENGTH = 26


def generate_key(rng: np.random.Generator) -> str:
    """One random key string (deterministic under a seeded generator)."""
    idx = rng.integers(0, len(_KEY_ALPHABET), size=KEY_LENGTH)
    return "".join(_KEY_ALPHABET[i] for i in idx)


@dataclass
class Credential:
    """One issued identity."""

    username: str
    access_key: str
    secret_key: str
    team: Optional[str] = None
    role: str = "student"        # or "instructor"
    revoked: bool = False
    metadata: Dict[str, str] = field(default_factory=dict)


class KeyStore:
    """Issues, looks up, verifies, and revokes credentials."""

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._by_access: Dict[str, Credential] = {}
        self._by_user: Dict[str, Credential] = {}

    def issue(self, username: str, team: Optional[str] = None) -> Credential:
        """Create and register a new student credential for ``username``.

        Re-issuing for an existing username revokes the old credential
        (lost-key recovery).
        """
        old = self._by_user.get(username)
        if old is not None:
            old.revoked = True
        cred = Credential(
            username=username,
            access_key=generate_key(self._rng),
            secret_key=generate_key(self._rng),
            team=team,
        )
        self._by_access[cred.access_key] = cred
        self._by_user[username] = cred
        return cred

    def restore_credential(self, doc: dict) -> Credential:
        """Re-register a credential from its snapshot/journal document.

        Recovery path: the key material already exists, so nothing is
        drawn from the RNG — the restored deployment accepts exactly the
        keys students already have in their ``.rai.profile`` files.
        """
        cred = Credential(
            username=doc["username"],
            access_key=doc["access_key"],
            secret_key=doc["secret_key"],
            team=doc.get("team"),
            role=doc.get("role", "student"),
            revoked=bool(doc.get("revoked", False)),
            metadata=dict(doc.get("metadata", {})),
        )
        self._by_access[cred.access_key] = cred
        self._by_user[cred.username] = cred
        return cred

    def lookup(self, access_key: str) -> Credential:
        cred = self._by_access.get(access_key)
        if cred is None or cred.revoked:
            raise InvalidCredentials("unknown or revoked access key")
        return cred

    def verify_pair(self, access_key: str, secret_key: str) -> Credential:
        """Check an access/secret pair (§V, Client Execution step 2)."""
        cred = self.lookup(access_key)
        if cred.secret_key != secret_key:
            raise InvalidCredentials("secret key does not match")
        return cred

    def credentials(self) -> List[Credential]:
        return [self._by_user[u] for u in sorted(self._by_user)]

    def __len__(self) -> int:
        return len(self._by_user)
