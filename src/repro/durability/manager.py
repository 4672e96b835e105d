"""The durability manager: journal hooks, checkpoints, and recovery.

One :class:`DurabilityManager` binds a live
:class:`~repro.core.system.RaiSystem` to a durability directory holding
two files: ``snapshot.json`` (the last checkpoint) and ``wal.log`` (the
mutations since).  The subsystems do not know about files — docdb,
broker, object store, and keystore each call one thin ``journal.*``
method after applying a mutation, and the manager frames it into the
WAL.  Recovery inverts the flow: install the snapshot, replay the WAL
suffix in order, then repair the soft state (requeue orphaned in-flight
deliveries, rebuild chunk refcounts, advance id watermarks).

Two invariants keep recovery exactly-once:

- **Terminal-record fencing.**  An in-flight task message whose job
  already has a (terminal) ``submissions`` record is *not* requeued on
  restore — the pre-crash worker finished it and the docdb insert made
  it into the log; re-running would double-record.  This is the same
  dedup the worker's ``_record`` probe applies to live redeliveries,
  moved to the recovery boundary.
- **Checkpoint-on-restore.**  Recovery ends with a fresh checkpoint, so
  a crash during the *next* epoch replays from a compacted base instead
  of re-running an ever-growing log.
"""

from __future__ import annotations

import base64
import os
import re
import time
from typing import Optional

from repro.broker.message import Message, advance_message_ids
from repro.broker.topic import MAX_ATTEMPTS
from repro.core.job import advance_job_ids
from repro.durability import snapshot as snapshot_codec
from repro.durability.wal import WriteAheadLog
from repro.errors import ReproError
from repro.obs.events import EventType
from repro.storage.lifecycle import LifecycleRule

_MSG_ID_RE = re.compile(r"^msg-(\d+)$")
_JOB_ID_RE = re.compile(r"^job-(\d+)$")


class DurabilityManager:
    """Owns one durability directory on behalf of one deployment."""

    SNAPSHOT_FILE = "snapshot.json"
    WAL_FILE = "wal.log"

    def __init__(self, system, path, replaying: bool = False):
        self.system = system
        self.path = str(path)
        os.makedirs(self.path, exist_ok=True)
        self.wal = WriteAheadLog(os.path.join(self.path, self.WAL_FILE))
        #: True while recovery installs/replays state: journal calls made
        #: by the very subsystems being rebuilt must not re-log history.
        self._replaying = replaying
        self.records_logged = 0
        self._records_since_checkpoint = 0
        self.checkpoints_taken = 0
        self.last_checkpoint_at: Optional[float] = None
        self.replay_anomalies = 0

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.path, self.SNAPSHOT_FILE)

    @property
    def active(self) -> bool:
        return not self._replaying and not self.wal.closed

    def close(self) -> None:
        """Crash semantics: stop journaling, leave files exactly as-is."""
        self.wal.close()

    # -- journal interface (called by the subsystems) ------------------------

    def _append(self, op: str, **fields) -> None:
        if not self.active:
            return
        record = {"op": op, "t": self.system.sim.now}
        record.update(fields)
        self.wal.append(record)
        self.records_logged += 1
        self._records_since_checkpoint += 1

    # docdb
    def docdb_insert(self, collection: str, doc: dict) -> None:
        self._append("db_insert", c=collection, doc=doc)

    def docdb_update(self, collection: str, doc: dict) -> None:
        self._append("db_update", c=collection, doc=doc)

    def docdb_index(self, collection: str, field: str, unique: bool) -> None:
        self._append("db_index", c=collection, field=field, unique=unique)

    # broker (durable topics only; callers skip ephemeral log_* topics)
    def broker_publish(self, topic: str, body, headers,
                       message_id: str, timestamp: float) -> None:
        self._append("mb_publish", topic=topic, body=body, headers=headers,
                     id=message_id, ts=timestamp)

    def broker_channel(self, topic: str, channel: str) -> None:
        self._append("mb_channel", topic=topic, channel=channel)

    def broker_deliver(self, route: str, message_id: str) -> None:
        self._append("mb_deliver", route=route, id=message_id)

    def broker_ack(self, route: str, message_id: str) -> None:
        self._append("mb_ack", route=route, id=message_id)

    def broker_requeue(self, route: str, message_id: str,
                       dead_lettered: bool) -> None:
        self._append("mb_requeue", route=route, id=message_id,
                     dl=dead_lettered)

    def broker_dl_drain(self, route: str, message_ids) -> None:
        self._append("mb_dl_drain", route=route, ids=list(message_ids))

    # object store
    def storage_bucket(self, name: str) -> None:
        self._append("st_bucket", bucket=name)

    def storage_put(self, bucket: str, key: str, data: bytes,
                    metadata, padding_bytes: int, dedup: bool) -> None:
        self._append("st_put", bucket=bucket, key=key,
                     data=base64.b64encode(data).decode("ascii"),
                     metadata=metadata, padding=padding_bytes, dedup=dedup)

    def storage_delete(self, bucket: str, key: str) -> None:
        self._append("st_delete", bucket=bucket, key=key)

    def storage_rule(self, bucket: str, prefix: str, expire_after: float,
                     since: str) -> None:
        self._append("st_rule", bucket=bucket, prefix=prefix,
                     expire_after=expire_after, since=since)

    # auth
    def auth_issue(self, cred_doc: dict) -> None:
        self._append("auth_issue", cred=cred_doc)

    # -- checkpoint ----------------------------------------------------------

    def checkpoint(self) -> dict:
        """Snapshot the deployment and truncate the WAL (compaction)."""
        start = time.perf_counter()
        snap = snapshot_codec.capture(self.system)
        bytes_written = snapshot_codec.write_snapshot(self.snapshot_path,
                                                      snap)
        compacted = self._records_since_checkpoint
        self.wal.reset()
        self._records_since_checkpoint = 0
        self.checkpoints_taken += 1
        self.last_checkpoint_at = self.system.sim.now
        duration = time.perf_counter() - start
        documents = sum(len(c["docs"]) for c in snap["db"].values())
        messages = sum(
            len(t["backlog"]) + sum(len(c["items"]) + len(c["in_flight"])
                                    + len(c["dead_letters"])
                                    for c in t["channels"])
            for t in snap["broker"]["topics"])
        info = {
            "path": self.snapshot_path,
            "bytes": bytes_written,
            "records_compacted": compacted,
            "collections": len(snap["db"]),
            "documents": documents,
            "messages": messages,
            "duration_s": round(duration, 6),
        }
        self.system.events.emit(EventType.DURABILITY_SNAPSHOT, **info)
        return info

    # -- recovery ------------------------------------------------------------

    def recover(self, snap: Optional[dict]) -> dict:
        """Install ``snap`` (if any), replay the WAL, repair soft state.

        Runs with journaling suppressed; the caller flips it on and takes
        the post-recovery checkpoint.
        """
        assert self._replaying, "recover() requires replaying mode"
        counts = {"snapshot": None, "replayed": 0, "torn": 0,
                  "discarded": 0, "requeued": 0, "fenced": 0,
                  "anomalies": 0}
        clock_target = 0.0
        if snap is not None:
            counts["snapshot"] = snapshot_codec.install(self.system, snap)
            clock_target = float(snap.get("now", 0.0))
        records, wal_stats = self.wal.replay()
        for record in records:
            try:
                self._apply(record)
            except (ReproError, KeyError, TypeError, ValueError):
                # A record naming a route or collection that is gone, or
                # missing a field: count it and keep replaying.  Anything
                # else is a bug in a replay handler; let it out.
                self.replay_anomalies += 1
            clock_target = max(clock_target, float(record.get("t", 0.0)))
        counts["replayed"] = wal_stats["records"]
        counts["torn"] = wal_stats["torn"]
        counts["discarded"] = wal_stats["discarded"]
        counts["anomalies"] = self.replay_anomalies
        requeued, fenced = self._requeue_in_flight()
        counts["requeued"] = requeued
        counts["fenced"] = fenced
        counts["chunk_store"] = \
            self.system.storage.rebuild_chunk_refcounts()
        counts["upload_bases"] = \
            self.system.storage.rebuild_upload_bases()
        self._advance_watermarks()
        sim = self.system.sim
        if clock_target > sim.now:
            sim.run(until=clock_target)
        return counts

    def _apply(self, record: dict) -> None:
        handler = getattr(self, "_replay_" + record["op"], None)
        if handler is None:
            self.replay_anomalies += 1
            return
        handler(record)

    # docdb replay: physical post-image application, straight into the
    # collection internals (the public verbs would re-plan and re-journal).
    def _replay_db_insert(self, record: dict) -> None:
        coll = self.system.db.collection(record["c"])
        doc = record["doc"]
        coll._index_add(doc["_id"], doc)
        coll._docs[doc["_id"]] = doc
        coll._note_oid(doc["_id"])
        self._note_job_id(doc.get("job_id"))

    def _replay_db_update(self, record: dict) -> None:
        coll = self.system.db.collection(record["c"])
        doc = record["doc"]
        old = coll._docs.get(doc["_id"])
        if old is not None:
            coll._index_remove(doc["_id"], old)
        coll._index_add(doc["_id"], doc)
        coll._docs[doc["_id"]] = doc

    def _replay_db_index(self, record: dict) -> None:
        self.system.db.collection(record["c"]).create_index(
            record["field"], unique=record["unique"])

    # broker replay: reconstruct queue/in-flight/dead-letter membership.
    def _replay_mb_publish(self, record: dict) -> None:
        msg = Message(record["topic"], record["body"], record["ts"],
                      message_id=record["id"], headers=record.get("headers"))
        self.system.broker.topic(record["topic"],
                                 ephemeral=False).publish(msg)
        self._note_message_id(record["id"])
        body = record["body"]
        if isinstance(body, dict):
            self._note_job_id(body.get("job_id"))

    def _replay_mb_channel(self, record: dict) -> None:
        self.system.broker.topic(record["topic"],
                                 ephemeral=False).channel(record["channel"])

    def _channel(self, route: str):
        return self.system.broker.channel(route)

    def _replay_mb_deliver(self, record: dict) -> None:
        channel = self._channel(record["route"])
        for i, msg in enumerate(channel.items):
            if msg.id == record["id"]:
                del channel.items[i]
                msg.attempts += 1
                msg.delivered_at = record.get("t")
                msg._channel = channel
                channel.in_flight[msg.id] = msg
                channel.total_delivered += 1
                return
        self.replay_anomalies += 1

    def _replay_mb_ack(self, record: dict) -> None:
        channel = self._channel(record["route"])
        if channel.in_flight.pop(record["id"], None) is not None:
            channel.total_acked += 1

    def _replay_mb_requeue(self, record: dict) -> None:
        channel = self._channel(record["route"])
        msg = channel.in_flight.pop(record["id"], None)
        if msg is None:
            self.replay_anomalies += 1
            return
        if record.get("dl"):
            channel.dead_letters.append(msg)
            channel.total_dead_lettered += 1
        else:
            channel.items.append(msg)
            channel.total_requeued += 1

    def _replay_mb_dl_drain(self, record: dict) -> None:
        channel = self._channel(record["route"])
        drained = set(record.get("ids", []))
        channel.dead_letters[:] = [m for m in channel.dead_letters
                                   if m.id not in drained]

    # object store replay: through the public verbs (journaling is off).
    def _replay_st_bucket(self, record: dict) -> None:
        self.system.storage.create_bucket(record["bucket"], exist_ok=True)

    def _replay_st_put(self, record: dict) -> None:
        self.system.storage.put_object(
            record["bucket"], record["key"],
            base64.b64decode(record["data"].encode("ascii")),
            metadata=record.get("metadata"),
            padding_bytes=record.get("padding", 0),
            dedup=record.get("dedup", False))

    def _replay_st_delete(self, record: dict) -> None:
        self.system.storage.delete_object(record["bucket"], record["key"],
                                          missing_ok=True)

    def _replay_st_rule(self, record: dict) -> None:
        self.system.storage.bucket(record["bucket"]).add_lifecycle_rule(
            LifecycleRule(prefix=record.get("prefix", ""),
                          expire_after=record["expire_after"],
                          since=record.get("since", "creation")))

    def _replay_auth_issue(self, record: dict) -> None:
        self.system.keystore.restore_credential(record["cred"])

    # -- soft-state repair ---------------------------------------------------

    def _requeue_in_flight(self):
        """Return orphaned in-flight deliveries to their queues.

        The consumers that claimed them died with the old process.  Each
        message goes back to the front of the line with its attempt count
        preserved — unless its job already has a terminal ``submissions``
        record (finished pre-crash, or dead-lettered and drained), in
        which case redelivery would double-execute: those are completed
        in place.  Out-of-budget messages park in the dead-letter list
        exactly as a live requeue would.
        """
        submissions = self.system.db.collection("submissions")
        requeued = fenced = 0
        for topic in self.system.broker.topics.values():
            if topic.ephemeral:
                continue
            for channel in topic.channels.values():
                for msg in list(channel.in_flight.values()):
                    channel.in_flight.pop(msg.id, None)
                    body = msg.body if isinstance(msg.body, dict) else {}
                    job_id = body.get("job_id")
                    if job_id is not None and \
                            submissions.find_one({"job_id": job_id}) \
                            is not None:
                        channel.total_acked += 1
                        fenced += 1
                        continue
                    msg.delivered_at = None
                    if msg.attempts >= MAX_ATTEMPTS:
                        channel.dead_letters.append(msg)
                        channel.total_dead_lettered += 1
                    else:
                        channel.items.appendleft(msg)
                        channel.total_requeued += 1
                        requeued += 1
        return requeued, fenced

    def _note_message_id(self, message_id) -> None:
        match = _MSG_ID_RE.match(message_id or "")
        if match:
            advance_message_ids(int(match.group(1)) + 1)

    def _note_job_id(self, job_id) -> None:
        match = _JOB_ID_RE.match(job_id if isinstance(job_id, str) else "")
        if match:
            advance_job_ids(int(match.group(1)) + 1)

    def _advance_watermarks(self) -> None:
        """Never mint an id a pre-crash epoch already used: a colliding
        job id would trip the worker's dedup fence and silently swallow
        a brand-new submission."""
        for doc in self.system.db.collection("submissions").find({}):
            self._note_job_id(doc.get("job_id"))
        for topic in self.system.broker.topics.values():
            for channel in topic.channels.values():
                for msg in list(channel.items) \
                        + list(channel.in_flight.values()) \
                        + channel.dead_letters:
                    self._note_message_id(msg.id)
                    body = msg.body if isinstance(msg.body, dict) else {}
                    self._note_job_id(body.get("job_id"))

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "path": self.path,
            "wal_records": self.wal.records_appended,
            "wal_bytes": self.wal.size_bytes if not self.wal.closed else 0,
            "records_logged": self.records_logged,
            "checkpoints": self.checkpoints_taken,
            "last_checkpoint_at": self.last_checkpoint_at,
            "replay_anomalies": self.replay_anomalies,
        }
