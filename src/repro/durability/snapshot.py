"""Snapshot capture/install: the control plane's full state as JSON.

A snapshot is the compaction point of the write-ahead log: everything a
cold-started :class:`~repro.core.system.RaiSystem` needs to continue the
semester — docdb collections with their indexes and id counters, durable
broker topics with queued/in-flight/dead-lettered messages, the object
store (buckets, lifecycle rules, objects, unique chunks), the build
artifact cache (entries + blobs; refcounts rebuild on install), issued
credentials, id watermarks, the event-log ring, and the simulation
clock.  Deliberately *not* captured: soft state that rebuilds itself —
chunk refcounts (recomputed from live manifests), upload-base
negotiation registry (recomputed from live objects), scheduler
fair-share ledgers (re-seeded from submission history), worker pools
and fetch caches, rate-limiter windows.

Writes are atomic (temp file + rename) so a crash during checkpoint
leaves the previous snapshot intact.
"""

from __future__ import annotations

import base64
import copy
import json
import os
from collections import deque
from dataclasses import asdict
from typing import Optional

from repro.broker.message import Message, message_id_watermark
from repro.core.job import job_id_watermark
from repro.obs.events import Event
from repro.storage.chunkstore import ChunkedObject, Manifest
from repro.storage.lifecycle import LifecycleRule
from repro.storage.objects import StoredObject

SNAPSHOT_VERSION = 1


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


# -- messages ---------------------------------------------------------------


def message_to_doc(msg: Message) -> dict:
    return {
        "id": msg.id,
        "topic": msg.topic,
        "body": msg.body,
        "timestamp": msg.timestamp,
        "attempts": msg.attempts,
        "delivered_at": msg.delivered_at,
        "headers": msg.headers,
    }


def message_from_doc(doc: dict) -> Message:
    msg = Message(doc["topic"], doc["body"], doc["timestamp"],
                  message_id=doc["id"], headers=doc.get("headers"))
    msg.attempts = int(doc.get("attempts", 0))
    msg.delivered_at = doc.get("delivered_at")
    return msg


# -- capture ----------------------------------------------------------------


def capture(system) -> dict:
    """Serialise the durable state of a live deployment."""
    return {
        "version": SNAPSHOT_VERSION,
        "now": system.sim.now,
        "config": dict(vars(system.config)),
        "watermarks": {"message": message_id_watermark(),
                       "job": job_id_watermark()},
        "db": _capture_db(system.db),
        "broker": _capture_broker(system.broker),
        "storage": _capture_storage(system.storage),
        "keystore": [asdict(cred) for cred in system.keystore.credentials()],
        "events": _capture_events(system.events),
        "buildcache": (system.build_cache.to_snapshot()
                       if system.build_cache is not None else None),
        "usage": system.usage.to_snapshot(),
        "cost": system.cost_allocator.to_snapshot(),
    }


def _capture_db(db) -> dict:
    out = {}
    for name, coll in db._collections.items():
        out[name] = {
            "next_oid": coll._next_oid,
            "indexes": [{"field": field, "unique": index.unique}
                        for field, index in coll._indexes.items()],
            "docs": [copy.deepcopy(doc) for doc in coll._docs.values()],
        }
    return out


def _capture_channel(channel) -> dict:
    return {
        "name": channel.name,
        "items": [message_to_doc(m) for m in channel.items],
        "in_flight": [message_to_doc(m) for m in channel.in_flight.values()],
        "dead_letters": [message_to_doc(m) for m in channel.dead_letters],
        "totals": {
            "delivered": channel.total_delivered,
            "acked": channel.total_acked,
            "requeued": channel.total_requeued,
            "dead_lettered": channel.total_dead_lettered,
            "prefetched": channel.total_prefetched,
        },
    }


def _capture_broker(broker) -> dict:
    topics = []
    for topic in broker.topics.values():
        if topic.ephemeral:
            continue  # log_* streams die with the process by design
        topics.append({
            "name": topic.name,
            "total_published": topic.total_published,
            "backlog": [message_to_doc(m) for m in topic.backlog],
            "channels": [_capture_channel(c)
                         for c in topic.channels.values()],
        })
    return {"topics": topics}


def _object_to_doc(obj) -> dict:
    doc = {
        "key": obj.key,
        "etag": obj.etag,
        "metadata": dict(obj.metadata),
        "created_at": obj.created_at,
        "last_used_at": obj.last_used_at,
        "padding_bytes": obj.padding_bytes,
    }
    if isinstance(obj, ChunkedObject):
        doc["kind"] = "chunked"
        doc["manifest"] = obj.manifest.to_doc()
    else:
        doc["kind"] = "plain"
        doc["data"] = _b64(obj.data)
    return doc


def _capture_storage(storage) -> dict:
    chunk_store = storage.chunk_store
    return {
        "chunks": {digest: _b64(blob)
                   for digest, blob in chunk_store._chunks.items()},
        "chunk_totals": {
            "ingested": chunk_store.total_ingested_bytes,
            "deduped": chunk_store.total_deduped_bytes,
        },
        "buckets": [{
            "name": bucket.name,
            "rules": [{"prefix": rule.prefix,
                       "expire_after": rule.expire_after,
                       "since": rule.since}
                      for rule in bucket.lifecycle_rules],
            "objects": [_object_to_doc(o) for o in bucket.objects.values()],
        } for bucket in storage.buckets.values()],
    }


def _capture_events(events) -> dict:
    return {
        "records": [event.to_dict() for event in events],
        "counts": dict(events.counts),
        "total_emitted": events.total_emitted,
    }


# -- install ----------------------------------------------------------------


def install(system, snap: dict) -> dict:
    """Load a captured snapshot into a freshly constructed system.

    Returns a count summary for the recovery report.  The caller is
    responsible for suppressing journaling while this runs and for
    rebuilding chunk refcounts afterwards.
    """
    version = snap.get("version")
    if version != SNAPSHOT_VERSION:
        from repro.errors import DurabilityError

        raise DurabilityError(f"unsupported snapshot version {version!r}")
    counts = {"documents": 0, "messages": 0, "objects": 0}
    counts["documents"] = _install_db(system.db, snap.get("db", {}))
    counts["messages"] = _install_broker(system.broker,
                                         snap.get("broker", {}))
    counts["objects"] = _install_storage(system.storage,
                                         snap.get("storage", {}))
    for cred_doc in snap.get("keystore", []):
        system.keystore.restore_credential(cred_doc)
    counts["credentials"] = len(snap.get("keystore", []))
    counts["events"] = _install_events(system.events,
                                       snap.get("events", {}))
    # Build cache: refcounts rebuild from entry blob lists on install;
    # torn entries (missing blobs) are dropped, never half-restored.
    # A snapshot from a cache-disabled config (None) or from before the
    # cache existed (key absent) restores to an empty cache.
    bc_snap = snap.get("buildcache")
    if bc_snap is not None and system.build_cache is not None:
        counts["buildcache"] = system.build_cache.install_snapshot(bc_snap)
    # Usage meter + cost books: accrued per-tenant usage and settled
    # attribution survive the crash; pre-crash snapshots (key absent)
    # restore to empty books.
    usage_snap = snap.get("usage")
    if usage_snap is not None:
        counts["usage_tenants"] = system.usage.install_snapshot(usage_snap)
    cost_snap = snap.get("cost")
    if cost_snap is not None:
        system.cost_allocator.install_snapshot(cost_snap)
    watermarks = snap.get("watermarks", {})
    from repro.broker.message import advance_message_ids
    from repro.core.job import advance_job_ids

    advance_message_ids(int(watermarks.get("message", 1)))
    advance_job_ids(int(watermarks.get("job", 1)))
    counts["collections"] = len(snap.get("db", {}))
    counts["topics"] = len(snap.get("broker", {}).get("topics", []))
    return counts


def _install_db(db, db_snap: dict) -> int:
    documents = 0
    for name, coll_snap in db_snap.items():
        coll = db.collection(name)
        coll._docs.clear()
        coll._indexes.clear()
        for spec in coll_snap.get("indexes", []):
            coll.create_index(spec["field"], unique=spec.get("unique", False))
        for doc in coll_snap.get("docs", []):
            doc_id = doc["_id"]
            coll._index_add(doc_id, doc)
            coll._docs[doc_id] = doc
            documents += 1
        coll._next_oid = int(coll_snap.get("next_oid", 1))
    return documents


def _install_broker(broker, broker_snap: dict) -> int:
    messages = 0
    for topic_snap in broker_snap.get("topics", []):
        topic = broker.topic(topic_snap["name"], ephemeral=False)
        topic.total_published = int(topic_snap.get("total_published", 0))
        for chan_snap in topic_snap.get("channels", []):
            channel = topic.channel(chan_snap["name"])
            channel.items.clear()
            channel.items.extend(message_from_doc(d)
                                 for d in chan_snap.get("items", []))
            channel.in_flight.clear()
            for doc in chan_snap.get("in_flight", []):
                msg = message_from_doc(doc)
                msg._channel = channel
                channel.in_flight[msg.id] = msg
            channel.dead_letters[:] = [message_from_doc(d)
                                       for d in chan_snap.get("dead_letters",
                                                              [])]
            totals = chan_snap.get("totals", {})
            channel.total_delivered = int(totals.get("delivered", 0))
            channel.total_acked = int(totals.get("acked", 0))
            channel.total_requeued = int(totals.get("requeued", 0))
            channel.total_dead_lettered = int(totals.get("dead_lettered", 0))
            channel.total_prefetched = int(totals.get("prefetched", 0))
            messages += (len(channel.items) + len(channel.in_flight)
                         + len(channel.dead_letters))
        # Backlog last: creating the first channel above would otherwise
        # flush a just-restored backlog into it.
        topic.backlog = deque(message_from_doc(d)
                              for d in topic_snap.get("backlog", []))
        messages += len(topic.backlog)
    return messages


def _install_storage(storage, storage_snap: dict) -> int:
    chunk_store = storage.chunk_store
    chunk_store._chunks = {digest: _unb64(blob) for digest, blob
                           in storage_snap.get("chunks", {}).items()}
    chunk_store._refs = {}  # rebuilt from live manifests by the caller
    chunk_totals = storage_snap.get("chunk_totals", {})
    chunk_store.total_ingested_bytes = int(chunk_totals.get("ingested", 0))
    chunk_store.total_deduped_bytes = int(chunk_totals.get("deduped", 0))
    objects = 0
    for bucket_snap in storage_snap.get("buckets", []):
        bucket = storage.create_bucket(bucket_snap["name"], exist_ok=True)
        bucket.lifecycle_rules = [
            LifecycleRule(prefix=r.get("prefix", ""),
                          expire_after=r["expire_after"],
                          since=r.get("since", "creation"))
            for r in bucket_snap.get("rules", [])]
        bucket.objects.clear()
        for doc in bucket_snap.get("objects", []):
            if doc["kind"] == "chunked":
                obj = ChunkedObject(doc["key"],
                                    Manifest.from_doc(doc["manifest"]),
                                    chunk_store,
                                    created_at=doc["created_at"],
                                    metadata=doc.get("metadata"),
                                    etag=doc.get("etag"),
                                    padding_bytes=doc.get("padding_bytes", 0))
            else:
                obj = StoredObject(doc["key"], _unb64(doc["data"]),
                                   created_at=doc["created_at"],
                                   metadata=doc.get("metadata"),
                                   etag=doc.get("etag"))
            obj.last_used_at = float(doc.get("last_used_at",
                                             doc["created_at"]))
            bucket.objects[obj.key] = obj
            objects += 1
    return objects


def _install_events(events, events_snap: dict) -> int:
    records = events_snap.get("records", [])
    for doc in records:
        events._events.append(Event(doc["t"], doc["type"],
                                    trace_id=doc.get("trace_id"),
                                    span_id=doc.get("span_id"),
                                    fields=dict(doc.get("fields", {}))))
    events.total_emitted = int(events_snap.get("total_emitted",
                                               len(records)))
    events.counts.update(events_snap.get("counts", {}))
    return len(records)


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

