"""Buckets and the object store service."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import (
    BucketAlreadyExists,
    NoSuchBucket,
    NoSuchKey,
)
from repro.storage.chunkstore import ChunkedObject, ChunkStore
from repro.storage.lifecycle import LifecycleRule
from repro.storage.objects import StoredObject, compute_etag
from repro.storage.presign import PresignSigner

#: The key presigned URLs are signed with.
SECRET = b"repro-object-store"


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
                   file_digests: Optional[Dict[str, str]] = None) -> StoredObject:
        """Store an object.

        With ``dedup=True`` the payload is content-addressed through the
        chunk store: only chunks never seen before cost memory, and the
        stored object assembles its bytes from shared chunks on demand.
        Sizes, etags, and bucket accounting are identical either way.
        ``file_digests`` (path → sha256 of the archived tree) rides on
        the dedup manifest so downstream readers can address the
        *content* without unpacking the archive.  ``padding_bytes`` (the
        declared size a real upload would carry) applies to dedup puts.
        """
        if self.fault_hook is not None:
            self.fault_hook("put", bucket_name, key)
        bucket = self.bucket(bucket_name)
        if dedup:
            manifest, new_bytes = self.chunk_store.store(data)
            if file_digests:
                manifest.files = dict(file_digests)
            obj = ChunkedObject(key, manifest, self.chunk_store,
                                created_at=self.sim.now, metadata=metadata,
                                etag=compute_etag(data),
                                padding_bytes=padding_bytes)
            owner = (metadata or {}).get("username")
            if owner:
                self._upload_bases[(bucket_name, owner)] = key
        else:
            obj = StoredObject(key, data, created_at=self.sim.now,
                               metadata=metadata)
        self._drop_object(bucket, key)  # release chunks of any overwrite
        bucket.objects[key] = obj
        if self.usage is not None:
            meta = metadata or {}
            tenant = meta.get("team") or meta.get("username")
            self.usage.record("storage_bytes_stored", float(len(data)),
                              tenant=tenant)
            if dedup and len(data) > new_bytes:
                # Chunks already resident cost no new storage: credit
                # the dedup win separately instead of hiding it.
                self.usage.record("storage_bytes_saved_dedup",
                                  float(len(data) - new_bytes),
                                  tenant=tenant)
        if self.journal is not None:
            self.journal.storage_put(bucket_name, key, data, metadata,
                                     padding_bytes, dedup)
        return obj

    def _drop_object(self, bucket: Bucket, key: str) -> bool:
        """Remove ``key`` from ``bucket``, releasing chunk references.

        Every deletion path (DELETE, lifecycle expiry, overwrite) funnels
        through here so a manifest's chunks are refcounted down exactly
        once — chunks shared with a live manifest survive.
        """
        obj = bucket.objects.pop(key, None)
        if obj is None:
            return False
        if isinstance(obj, ChunkedObject):
            self.chunk_store.release(obj.manifest)
            owner = obj.metadata.get("username")
            if owner and self._upload_bases.get((bucket.name, owner)) == key:
                del self._upload_bases[(bucket.name, owner)]
        if self.journal is not None:
            self.journal.storage_delete(bucket.name, key)
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
                removed.append(f"{bucket.name}/{key}")
        return removed

    def lifecycle_sweeper(self, interval: float = 24 * 3600.0):
        """A kernel process running sweeps every ``interval`` seconds."""
        return self.sim.every(interval, self.run_lifecycle_sweep)

    # -- recovery ------------------------------------------------------------

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
