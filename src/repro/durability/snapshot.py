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

The storage section holds each chunk in the deflated form the chunk
store keeps (marked ``"chunk_codec": "zlib"``), and the chunk map is
written one chunk at a time, so a checkpoint never holds the chunk
store's bytes a second time; the file is byte-identical to the compact
``json.dumps`` of :func:`capture` with base64 chunks.  A file written
when chunks were held raw (no ``chunk_codec``) still installs: the
chunk store deflates its chunks as it reads them.  Install inflates
every chunk once, and a damaged one raises
:class:`~repro.errors.DurabilityError`.
Writes are atomic (temp file + rename) so a crash or a failed write
during checkpoint leaves the previous snapshot intact.
"""

from __future__ import annotations

import base64
import json
import os
from typing import Optional

from repro.broker.message import advance_message_ids, message_id_watermark
from repro.core.job import advance_job_ids, job_id_watermark
from repro.errors import DurabilityError, StorageError

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
    """Serialise the durable state of a live deployment.  The chunk
    store's section holds its chunks as bytes (not copies); the writer
    encodes them one at a time."""
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
            try:
                counts[section] = owner.install_snapshot(snap[section])
            except StorageError as exc:   # a damaged chunk, a bad codec
                raise DurabilityError(
                    f"snapshot section {section!r}: {exc}") from exc
    watermarks = snap.get("watermarks", {})
    advance_message_ids(int(watermarks.get("message", 1)))
    advance_job_ids(int(watermarks.get("job", 1)))
    return counts


# -- files ------------------------------------------------------------------


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _write_value(write, value) -> int:
    """Write ``value`` as :func:`_dumps` would, descending into dicts so
    that no more than one entry is encoded at a time; bytes (the chunk
    store's chunks) go as base64 text.  Returns the characters written."""
    if isinstance(value, bytes):
        return write('"' + base64.b64encode(value).decode("ascii") + '"')
    if not isinstance(value, dict) \
            or not all(isinstance(key, str) for key in value):
        return write(_dumps(value))
    written = write("{")
    for i, (key, item) in enumerate(value.items()):
        written += write(("," if i else "") + _dumps(key) + ":")
        written += _write_value(write, item)
    return written + write("}")


def write_snapshot(path: str, snap: dict) -> int:
    """Atomically write ``snap`` to ``path``, one chunk at a time;
    returns bytes written.

    The file equals ``_dumps`` of ``snap`` with base64 chunks.  A write
    that fails removes the temp file and leaves ``path`` as it was.
    """
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "w") as fh:
            written = _write_value(fh.write, snap)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):  # the write failed part way
            os.remove(tmp_path)
    return written


def load_snapshot(path: str) -> Optional[dict]:
    """Read a snapshot file; None when no checkpoint was ever taken."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)
