"""Snapshot capture/install: the control plane's full state as JSON.

A snapshot is the compaction point of the write-ahead log: everything a
cold-started :class:`~repro.core.system.RaiSystem` needs to continue the
semester.  Each service owns its section — ``to_snapshot`` writes it,
``install_snapshot`` loads it and rebuilds whatever soft state derives
from it (chunk refcounts, upload bases) — so this module is one pass
over the owners plus the clock, the config and the id watermarks.
Deliberately *not* captured: scheduler fair-share ledgers (re-seeded
from submission history), worker pools and fetch caches, rate-limiter
windows.

Writes are atomic (temp file + rename) so a crash during checkpoint
leaves the previous snapshot intact.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.broker.message import advance_message_ids, message_id_watermark
from repro.core.job import advance_job_ids, job_id_watermark
from repro.errors import DurabilityError

SNAPSHOT_VERSION = 1


def _owners(system) -> dict:
    """Snapshot section → the service that owns it (None: not built)."""
    return {
        "db": system.db,
        "broker": system.broker,
        "storage": system.storage,
        "keystore": system.keystore,
        "events": system.events,
        "buildcache": system.build_cache,
        "usage": system.usage,
        "cost": system.cost_allocator,
    }


def capture(system) -> dict:
    """Serialise the durable state of a live deployment."""
    snap = {
        "version": SNAPSHOT_VERSION,
        "now": system.sim.now,
        "config": dict(vars(system.config)),
        "watermarks": {"message": message_id_watermark(),
                       "job": job_id_watermark()},
    }
    for section, owner in _owners(system).items():
        snap[section] = owner.to_snapshot() if owner is not None else None
    return snap


def install(system, snap: dict) -> dict:
    """Load a captured snapshot into a freshly constructed system.

    A section that is absent or None (written before its service existed,
    or with the build cache off) leaves its service empty.  Returns each
    section's count for the recovery report.
    """
    version = snap.get("version")
    if version != SNAPSHOT_VERSION:
        raise DurabilityError(f"unsupported snapshot version {version!r}")
    counts = {}
    for section, owner in _owners(system).items():
        if owner is not None and snap.get(section) is not None:
            counts[section] = owner.install_snapshot(snap[section])
    watermarks = snap.get("watermarks", {})
    advance_message_ids(int(watermarks.get("message", 1)))
    advance_job_ids(int(watermarks.get("job", 1)))
    return counts


# -- files ------------------------------------------------------------------


def write_snapshot(path: str, snap: dict) -> int:
    """Atomically write ``snap`` to ``path``; returns bytes written."""
    text = json.dumps(snap, separators=(",", ":"))
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, path)
    return len(text)


def load_snapshot(path: str) -> Optional[dict]:
    """Read a snapshot file; None when no checkpoint was ever taken."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)
