"""Stored objects and content hashing."""

from __future__ import annotations

import hashlib
from typing import Dict, Optional


def compute_etag(data: bytes) -> str:
    """MD5 hex digest, matching S3's simple-upload ETag convention."""
    return hashlib.md5(data).hexdigest()


class StoredObject:
    """An immutable object version inside a bucket."""

    __slots__ = ("key", "data", "etag", "metadata", "created_at",
                 "last_used_at", "padding_bytes")

    def __init__(self, key: str, data: bytes, created_at: float,
                 metadata: Optional[Dict[str, str]] = None,
                 etag: Optional[str] = None):
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError("object data must be bytes")
        self.key = key
        self.data = bytes(data)
        self.etag = etag or compute_etag(self.data)
        self.metadata: Dict[str, str] = dict(metadata or {})
        self.created_at = float(created_at)
        #: Updated on every GET; lifecycle rules may expire on this clock
        #: (the course deleted uploads "one month after the last use", §V).
        self.last_used_at = float(created_at)
        #: Declared sparse size (a dedup upload's; see ChunkedObject).
        self.padding_bytes = 0

    @property
    def size(self) -> int:
        return len(self.data)

    def head(self) -> dict:
        """Metadata-only view (no body), like an S3 HEAD response."""
        return {
            "key": self.key,
            "size": self.size,
            "etag": self.etag,
            "metadata": dict(self.metadata),
            "created_at": self.created_at,
            "last_used_at": self.last_used_at,
        }

    def __repr__(self):
        return f"<StoredObject {self.key!r} {self.size}B etag={self.etag[:8]}>"
