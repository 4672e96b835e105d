"""HMAC request signing.

Job messages travel through a shared broker, so the worker re-checks
credentials on receipt (§V, Worker Operations step 2).  Rather than placing
the secret key in the message, the client signs a canonical digest of the
request with it; the worker recomputes the signature from the key store's
copy of the secret, which covers the embedded timestamp too.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from typing import Any

from repro.errors import SignatureMismatch


def _canonical(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")
                      ).encode("utf-8")


def sign_request(secret_key: str, payload: Any, timestamp: float) -> str:
    """Signature over ``payload`` at ``timestamp`` using ``secret_key``."""
    body = _canonical({"payload": payload, "ts": round(float(timestamp), 6)})
    return hmac.new(secret_key.encode("utf-8"), body,
                    hashlib.sha256).hexdigest()


def verify_request(secret_key: str, payload: Any, timestamp: float,
                   signature: str) -> None:
    """Raise :class:`SignatureMismatch` unless the signature verifies."""
    expected = sign_request(secret_key, payload, timestamp)
    if not hmac.compare_digest(expected, signature):
        raise SignatureMismatch("request signature does not verify")
