"""The durability manager: journal hooks, checkpoints, and recovery.

One :class:`DurabilityManager` binds a live
:class:`~repro.core.system.RaiSystem` to a durability directory holding
two files: ``snapshot.json`` (the last checkpoint) and ``wal.log`` (the
mutations since).  The subsystems do not know about files — docdb,
broker, object store, and keystore each call one thin ``journal.*``
method after applying a mutation, and the manager frames it into the
WAL.  Recovery inverts the flow: install the snapshot (its id
watermarks included), replay the WAL suffix in order, noting every id it
names, then requeue orphaned in-flight deliveries.  Each state change — live or replayed — has one
implementation, in the service that owns the state: replay calls it
with the record's fields and sim time, and nothing else (no spans,
events, usage, dispatch or wake-ups).

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
from repro.core.job import advance_job_ids
from repro.durability import snapshot as snapshot_codec
from repro.durability.wal import WriteAheadLog
from repro.errors import DurabilityError, ReproError
from repro.obs.events import EventType
from repro.storage.chunkstore import CHUNK_BYTES, ChunkRef, Manifest
from repro.storage.lifecycle import LifecycleRule
from repro.storage.objects import compute_etag

_MSG_ID_RE = re.compile(r"^msg-(\d+)$")
_JOB_ID_RE = re.compile(r"^job-(\d+)$")


class DurabilityManager:
    """Owns one durability directory on behalf of one deployment."""

    SNAPSHOT_FILE = "snapshot.json"
    WAL_FILE = "wal.log"

    def __init__(self, system, path):
        self.system = system
        self.path = str(path)
        os.makedirs(self.path, exist_ok=True)
        self.wal = WriteAheadLog(os.path.join(self.path, self.WAL_FILE))
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
        return not self.wal.closed

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

    def storage_put(self, bucket: str, obj, fresh, metadata,
                    padding_bytes: int, dedup: bool, file_digests) -> None:
        """A plain put journals its bytes whole.  A dedup put journals
        its manifest (digests and sizes), its etag, and only the chunks
        ``fresh`` names as new to the store: replay takes the rest from
        the chunk store, so each chunk's bytes are journaled once."""
        if dedup:
            body = {"manifest": [[ref.digest, ref.size]
                                 for ref in obj.manifest.chunks],
                    "etag": obj.etag,
                    "chunks": {digest: base64.b64encode(chunk).decode("ascii")
                               for digest, chunk in fresh.items()}}
        else:
            body = {"data": base64.b64encode(obj.data).decode("ascii")}
        self._append("st_put", bucket=bucket, key=obj.key, **body,
                     metadata=metadata, padding=padding_bytes, dedup=dedup,
                     file_digests=file_digests)

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
        """Snapshot the deployment and truncate the WAL (compaction).

        A write that fails raises with the previous snapshot and the WAL
        untouched, and journaling goes on.
        """
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

        Runs before any worker exists, with no journal or usage meter
        wired to the services it rebuilds; the caller wires them and
        takes the post-recovery checkpoint.  A directory that splits
        ``submissions`` by partition is refused before anything is
        installed.
        """
        counts = {"snapshot": None, "replayed": 0, "torn": 0,
                  "discarded": 0, "requeued": 0, "fenced": 0,
                  "anomalies": 0}
        records, wal_stats = self.wal.replay()
        _refuse_partitioned_submissions(
            [*(snap or {}).get("db", {}), *(r.get("c") for r in records)])
        clock_target = 0.0
        if snap is not None:
            counts["snapshot"] = snapshot_codec.install(self.system, snap)
            clock_target = float(snap.get("now", 0.0))
        for record in records:
            try:
                self._apply(record)
            except (ReproError, KeyError, TypeError, ValueError):
                # A record naming a route or collection that is gone, or
                # missing a field: count it and keep replaying.  Anything
                # else is a bug in the owner's state change; let it out.
                self.replay_anomalies += 1
            clock_target = max(clock_target, float(record.get("t", 0.0)))
        counts["replayed"] = wal_stats["records"]
        counts["torn"] = wal_stats["torn"]
        counts["discarded"] = wal_stats["discarded"]
        counts["anomalies"] = self.replay_anomalies
        counts["requeued"], counts["fenced"] = self._requeue_in_flight()
        sim = self.system.sim
        if clock_target > sim.now:
            sim.run(until=clock_target)
        return counts

    def _apply(self, record: dict) -> None:
        """Replay one record through the service that owns its state:
        the state change only, as of the record's sim time."""
        db, broker, storage = \
            self.system.db, self.system.broker, self.system.storage
        op = record["op"]
        if op == "db_insert":
            db.collection(record["c"]).add_document(record["doc"])
            self._note_job_id(record["doc"].get("job_id"))
        elif op == "db_update":
            db.collection(record["c"]).replace_document(record["doc"])
        elif op == "db_index":
            db.collection(record["c"]).create_index(
                record["field"], unique=record["unique"])
        elif op == "mb_publish":
            broker.topic(record["topic"], ephemeral=False).publish(
                Message(record["topic"], record["body"], record["ts"],
                        message_id=record["id"],
                        headers=record.get("headers")))
            self._note_message_id(record["id"])
            if isinstance(record["body"], dict):
                self._note_job_id(record["body"].get("job_id"))
        elif op == "mb_channel":
            broker.topic(record["topic"],
                         ephemeral=False).channel(record["channel"])
        elif op == "mb_deliver":
            broker.channel(record["route"]).claim(record["id"], record["t"])
        elif op == "mb_ack":
            broker.channel(record["route"]).settle(record["id"])
        elif op == "mb_requeue":
            channel = broker.channel(record["route"])
            channel.unclaim(channel.in_flight[record["id"]],
                            bool(record.get("dl")))
        elif op == "mb_dl_drain":
            broker.channel(record["route"]).remove_dead_letters(
                set(record.get("ids", [])))
        elif op == "st_bucket":
            storage.create_bucket(record["bucket"], exist_ok=True)
        elif op == "st_put":
            storage.place_object(
                record["bucket"], record["key"], self._put_payload(record),
                record.get("metadata"), record.get("padding", 0),
                record.get("dedup", False), record.get("file_digests"),
                record["t"])
        elif op == "st_delete":
            storage.delete_object(record["bucket"], record["key"],
                                  missing_ok=True)
        elif op == "st_rule":
            storage.bucket(record["bucket"]).add_lifecycle_rule(
                LifecycleRule(prefix=record.get("prefix", ""),
                              expire_after=record["expire_after"],
                              since=record.get("since", "creation")))
        elif op == "auth_issue":
            self.system.keystore.restore_credential(record["cred"])
        else:
            raise KeyError(op)

    def _put_payload(self, record: dict) -> bytes:
        """The bytes an ``st_put`` stored: whole in ``data`` (a plain
        put, or any put journaled before dedup puts carried chunks), or
        assembled from the chunk store plus the chunks it carries."""
        if "data" in record:
            return base64.b64decode(record["data"])
        manifest = Manifest(CHUNK_BYTES, [ChunkRef(digest, size)
                                          for digest, size
                                          in record["manifest"]])
        carried = {digest: base64.b64decode(text)
                   for digest, text in record["chunks"].items()}
        data = self.system.storage.chunk_store.assemble(manifest, carried)
        if compute_etag(data) != record["etag"]:
            raise DurabilityError(
                f"st_put {record['key']!r}: assembled payload does not "
                f"match etag {record['etag']}")
        return data

    # -- soft-state repair ---------------------------------------------------

    def _requeue_in_flight(self):
        """Return orphaned in-flight deliveries to their queues.

        The consumers that claimed them died with the old process.  The
        fence: a message whose job already has a terminal ``submissions``
        record (finished pre-crash, or dead-lettered and drained) settles
        as acked instead — redelivery would run it twice.  Returns
        ``(requeued, fenced)`` over every channel (recovery builds no
        ephemeral one).
        """
        submissions = self.system.db.collection("submissions")

        def finished(msg) -> bool:
            job_id = msg.body.get("job_id") \
                if isinstance(msg.body, dict) else None
            return job_id is not None and \
                submissions.find_one({"job_id": job_id}) is not None

        requeued = fenced = 0
        for topic in self.system.broker.topics.values():
            for channel in topic.channels.values():
                r, f = channel.requeue_orphans(finished)
                requeued += r
                fenced += f
        return requeued, fenced

    def _note_message_id(self, message_id) -> None:
        match = _MSG_ID_RE.match(message_id or "")
        if match:
            advance_message_ids(int(match.group(1)) + 1)

    def _note_job_id(self, job_id) -> None:
        match = _JOB_ID_RE.match(job_id if isinstance(job_id, str) else "")
        if match:
            advance_job_ids(int(match.group(1)) + 1)

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


def _refuse_partitioned_submissions(collections) -> None:
    """Refuse a directory written when ``submissions`` was split into
    ``submissions.p0`` .. ``submissions.pN`` collections: restored as is,
    ``submissions`` would be empty and the terminal-record fence would
    re-run every finished job."""
    for name in collections:
        if isinstance(name, str) and name.startswith("submissions.p"):
            raise DurabilityError(
                f"cannot restore collection {name!r}: submissions is one "
                f"collection, not one per partition")
