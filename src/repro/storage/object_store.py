"""Buckets and the object store service."""

from __future__ import annotations

import base64
from typing import Dict, List, Optional

from repro.errors import (
    BucketAlreadyExists,
    NoSuchBucket,
    NoSuchKey,
)
from repro.storage.chunkstore import ChunkedObject, ChunkStore, Manifest
from repro.storage.lifecycle import LifecycleRule
from repro.storage.objects import StoredObject, compute_etag
from repro.storage.presign import PresignSigner

#: The key presigned URLs are signed with.
SECRET = b"repro-object-store"


def _object_doc(obj: StoredObject) -> dict:
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
        doc["data"] = base64.b64encode(obj.data).decode("ascii")
    return doc


def _object_from_doc(doc: dict, chunk_store: ChunkStore) -> StoredObject:
    if doc["kind"] == "chunked":
        obj = ChunkedObject(doc["key"], Manifest.from_doc(doc["manifest"]),
                            chunk_store, created_at=doc["created_at"],
                            metadata=doc.get("metadata"),
                            etag=doc.get("etag"),
                            padding_bytes=doc.get("padding_bytes", 0))
    else:
        obj = StoredObject(doc["key"], base64.b64decode(doc["data"]),
                           created_at=doc["created_at"],
                           metadata=doc.get("metadata"),
                           etag=doc.get("etag"))
    obj.last_used_at = float(doc.get("last_used_at", doc["created_at"]))
    return obj


class Bucket:
    """A flat namespace of keyed objects with lifecycle rules."""

    def __init__(self, store: "ObjectStore", name: str):
        self.store = store
        self.name = name
        self.objects: Dict[str, StoredObject] = {}
        self.lifecycle_rules: List[LifecycleRule] = []

    def add_lifecycle_rule(self, rule: LifecycleRule) -> None:
        self.lifecycle_rules.append(rule)
        if self.store.journal is not None:
            self.store.journal.storage_rule(self.name, rule.prefix,
                                            rule.expire_after, rule.since)

    @property
    def total_bytes(self) -> int:
        return sum(o.size for o in self.objects.values())

    def __len__(self) -> int:
        return len(self.objects)


class ObjectStore:
    """The file-server service (paper's Amazon S3 role).

    All operations are instantaneous in simulated time; transfer *delays*
    are modelled by the callers (client/worker) from byte counts and link
    bandwidth, which keeps the store usable both inside simulations and in
    plain unit tests.
    """

    def __init__(self, sim):
        self.sim = sim
        self.buckets: Dict[str, Bucket] = {}
        #: Content-addressed dedup backing for ``put_object(dedup=True)``.
        #: Shared across all buckets: identical chunks are held once.
        self.chunk_store = ChunkStore()
        self._signer = PresignSigner(SECRET, clock=lambda: self.sim.now)
        #: Optional :class:`~repro.obs.usage.UsageMeter`; wired by
        #: RaiSystem so stored bytes bill the owning tenant (attribution
        #: from the object metadata's team/username).
        self.usage = None
        #: Chaos hook: ``fault_hook(op, bucket, key)`` runs before every
        #: get/put and may raise (e.g. TransientStorageError).  Installed
        #: by :class:`repro.faults.FaultInjector`; None in normal runs.
        self.fault_hook = None
        #: Optional :class:`~repro.durability.DurabilityManager` journal.
        #: When set, bucket creation, puts, deletes (any path), and
        #: lifecycle-rule additions append to the write-ahead log.
        self.journal = None
        #: ``(bucket, owner) -> key`` of the owner's latest chunked
        #: upload — the server side of git-style base negotiation: a
        #: fresh client (or one that lost state to a restore) asks what
        #: base the server holds and deltas against it.
        self._upload_bases: Dict[tuple, str] = {}

    # -- buckets ------------------------------------------------------------

    def create_bucket(self, name: str, exist_ok: bool = False) -> Bucket:
        if name in self.buckets:
            if exist_ok:
                return self.buckets[name]
            raise BucketAlreadyExists(name)
        bucket = Bucket(self, name)
        self.buckets[name] = bucket
        if self.journal is not None:
            self.journal.storage_bucket(name)
        return bucket

    def bucket(self, name: str) -> Bucket:
        try:
            return self.buckets[name]
        except KeyError:
            raise NoSuchBucket(name) from None

    # -- object operations ------------------------------------------------------------

    def put_object(self, bucket_name: str, key: str, data: bytes,
                   metadata: Optional[dict] = None,
                   padding_bytes: int = 0,
                   dedup: bool = False,
                   manifest: Optional[Manifest] = None) -> StoredObject:
        """Store an object.

        With ``dedup=True`` the payload is content-addressed through the
        chunk store: only chunks never seen before cost memory, and the
        stored object assembles its bytes from shared chunks on demand.
        Sizes, etags, and bucket accounting are identical either way.
        ``manifest`` is the uploader's own chunking of ``data`` (with its
        file map, path → sha256, so downstream readers can address the
        *content* without unpacking the archive): the store then hashes
        only the chunks it lacks, and refuses the put with
        ``StorageError`` when one of them, or the size, does not match.
        ``padding_bytes`` (the declared size a real upload would carry)
        applies to dedup puts.
        """
        if self.fault_hook is not None:
            self.fault_hook("put", bucket_name, key)
        obj, fresh = self.place_object(bucket_name, key, data, metadata,
                                       padding_bytes, dedup, manifest,
                                       self.sim.now)
        if self.usage is not None:
            meta = metadata or {}
            tenant = meta.get("team") or meta.get("username")
            self.usage.record("storage_bytes_stored", float(len(data)),
                              tenant=tenant)
            if dedup:
                # Chunks already resident cost no new storage: credit
                # the dedup win, in raw bytes, instead of hiding it.
                sizes = {ref.digest: ref.size for ref in obj.manifest.chunks}
                saved = len(data) - sum(sizes[digest] for digest in fresh)
                if saved > 0:
                    self.usage.record("storage_bytes_saved_dedup",
                                      float(saved), tenant=tenant)
        if self.journal is not None:
            self.journal.storage_put(bucket_name, obj, fresh, metadata,
                                     padding_bytes, dedup)
        return obj

    def place_object(self, bucket_name: str, key: str, data: bytes,
                     metadata: Optional[dict], padding_bytes: int,
                     dedup: bool, manifest: Optional[Manifest],
                     at: float):
        """The state change of a put (live and replay), stored as of sim
        time ``at``.  Returns ``(object, fresh)``: the deflated chunks,
        by digest, that a dedup put added to the chunk store (empty for a
        plain put)."""
        bucket = self.bucket(bucket_name)
        fresh: Dict[str, bytes] = {}
        if dedup:
            manifest, fresh = self.chunk_store.store(data, manifest)
            obj = ChunkedObject(key, manifest, self.chunk_store,
                                created_at=at, metadata=metadata,
                                etag=compute_etag(data),
                                padding_bytes=padding_bytes)
        else:
            obj = StoredObject(key, data, created_at=at, metadata=metadata)
        # Release the chunks of any overwrite once the new payload holds
        # its references.  The put's own record journals the overwrite:
        # replayed before it, a delete would free the chunks it shares.
        self._drop_object(bucket, key)
        bucket.objects[key] = obj
        owner = (metadata or {}).get("username")
        if dedup and owner:
            self._upload_bases[(bucket_name, owner)] = key
        return obj, fresh

    def _drop_object(self, bucket: Bucket, key: str) -> bool:
        """Remove ``key`` from ``bucket``, releasing chunk references.

        Every deletion path (DELETE, lifecycle expiry, overwrite) funnels
        through here so a manifest's chunks are refcounted down exactly
        once — chunks shared with a live manifest survive.  DELETE and
        expiry journal the removal; an overwrite is its put's record.
        """
        obj = bucket.objects.pop(key, None)
        if obj is None:
            return False
        if isinstance(obj, ChunkedObject):
            self.chunk_store.release(obj.manifest)
            owner = obj.metadata.get("username")
            if owner and self._upload_bases.get((bucket.name, owner)) == key:
                del self._upload_bases[(bucket.name, owner)]
        return True

    def get_object(self, bucket_name: str, key: str) -> StoredObject:
        if self.fault_hook is not None:
            self.fault_hook("get", bucket_name, key)
        bucket = self.bucket(bucket_name)
        try:
            obj = bucket.objects[key]
        except KeyError:
            raise NoSuchKey(f"{bucket_name}/{key}") from None
        obj.last_used_at = self.sim.now
        return obj

    def head_object(self, bucket_name: str, key: str) -> dict:
        bucket = self.bucket(bucket_name)
        try:
            return bucket.objects[key].head()
        except KeyError:
            raise NoSuchKey(f"{bucket_name}/{key}") from None

    def delete_object(self, bucket_name: str, key: str,
                      missing_ok: bool = True) -> bool:
        bucket = self.bucket(bucket_name)
        if not self._drop_object(bucket, key):
            if missing_ok:
                return False
            raise NoSuchKey(f"{bucket_name}/{key}")
        if self.journal is not None:
            self.journal.storage_delete(bucket_name, key)
        return True

    # -- base negotiation ----------------------------------------------------

    def negotiate_base(self, bucket_name: str, owner: str):
        """The manifest of ``owner``'s latest chunked upload, or ``None``.

        This is the server half of git-delta ingest: a client with no
        local ``_last_manifest`` (fresh instance, post-restore session)
        asks the store for a base and deltas its upload against it.
        """
        key = self._upload_bases.get((bucket_name, owner))
        if key is None:
            return None
        bucket = self.buckets.get(bucket_name)
        obj = bucket.objects.get(key) if bucket is not None else None
        if isinstance(obj, ChunkedObject):
            return obj.manifest
        return None

    def rebuild_upload_bases(self) -> int:
        """Recompute the per-owner base registry from live objects (it is
        soft state, derived like chunk refcounts); returns entry count."""
        latest: Dict[tuple, tuple] = {}
        for bucket in self.buckets.values():
            for key, obj in bucket.objects.items():
                if not isinstance(obj, ChunkedObject):
                    continue
                owner = obj.metadata.get("username")
                if not owner:
                    continue
                slot = (bucket.name, owner)
                stamp = (obj.created_at, key)
                if slot not in latest or stamp > latest[slot]:
                    latest[slot] = stamp
        self._upload_bases = {slot: stamp[1]
                              for slot, stamp in latest.items()}
        return len(self._upload_bases)

    # -- presigned URLs ------------------------------------------------------------

    def presign_get(self, bucket_name: str, key: str,
                    expires_in: float = 3600.0) -> str:
        self.head_object(bucket_name, key)  # must exist now
        return self._signer.sign("GET", bucket_name, key,
                                 self.sim.now + expires_in)

    def redeem_get(self, token: str) -> StoredObject:
        claim = self._signer.verify(token, expected_method="GET")
        return self.get_object(claim.bucket, claim.key)

    # -- lifecycle ------------------------------------------------------------

    def run_lifecycle_sweep(self) -> List[str]:
        """Delete every expired object; returns ``bucket/key`` names."""
        now = self.sim.now
        removed: List[str] = []
        for bucket in self.buckets.values():
            doomed = [key for key, obj in bucket.objects.items()
                      if any(rule.matches(key) and rule.is_expired(obj, now)
                             for rule in bucket.lifecycle_rules)]
            for key in doomed:
                self._drop_object(bucket, key)
                if self.journal is not None:
                    self.journal.storage_delete(bucket.name, key)
                removed.append(f"{bucket.name}/{key}")
        return removed

    def lifecycle_sweeper(self, interval: float = 24 * 3600.0):
        """A kernel process running sweeps every ``interval`` seconds."""
        return self.sim.every(interval, self.run_lifecycle_sweep)

    # -- snapshot ------------------------------------------------------------

    def to_snapshot(self) -> dict:
        snap = self.chunk_store.to_snapshot()
        snap["buckets"] = [{
            "name": bucket.name,
            "rules": [{"prefix": rule.prefix,
                       "expire_after": rule.expire_after,
                       "since": rule.since}
                      for rule in bucket.lifecycle_rules],
            "objects": [_object_doc(o) for o in bucket.objects.values()],
        } for bucket in self.buckets.values()]
        return snap

    def install_snapshot(self, snap: dict) -> int:
        """Load :meth:`to_snapshot` output and rebuild the soft state
        derived from it (chunk refcounts, upload bases); returns the
        objects restored."""
        self.chunk_store.install_snapshot(snap)
        objects = 0
        for bucket_snap in snap.get("buckets", []):
            bucket = self.create_bucket(bucket_snap["name"], exist_ok=True)
            bucket.lifecycle_rules = [
                LifecycleRule(prefix=r.get("prefix", ""),
                              expire_after=r["expire_after"],
                              since=r.get("since", "creation"))
                for r in bucket_snap.get("rules", [])]
            bucket.objects.clear()
            for doc in bucket_snap.get("objects", []):
                bucket.objects[doc["key"]] = _object_from_doc(
                    doc, self.chunk_store)
                objects += 1
        self.rebuild_chunk_refcounts()
        self.rebuild_upload_bases()
        return objects

    def rebuild_chunk_refcounts(self) -> dict:
        """Recompute chunk refcounts from the manifests still live in
        buckets (refcounts are soft state and are not snapshotted)."""
        manifests = [obj.manifest
                     for bucket in self.buckets.values()
                     for obj in bucket.objects.values()
                     if isinstance(obj, ChunkedObject)]
        return self.chunk_store.rebuild_refcounts(manifests)

    # -- observability ------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return sum(b.total_bytes for b in self.buckets.values())

    @property
    def total_objects(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def stats(self) -> dict:
        return {
            "buckets": {name: {"objects": len(b), "bytes": b.total_bytes}
                        for name, b in self.buckets.items()},
            "total_bytes": self.total_bytes,
            "total_objects": self.total_objects,
            "chunk_store": self.chunk_store.stats(),
        }
