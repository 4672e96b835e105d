"""S3-style object storage.

The paper uses Amazon S3 as the file server (§IV): student project archives
are uploaded before a job runs, workers upload the job's ``/build``
directory when it finishes, and instructors later download everything
tagged as a final submission.  Uploaded files "can be configured to have a
particular lifetime after which they get deleted" — the course set 1–3
months since last use.

This subpackage reproduces that contract: buckets, keyed immutable objects
with MD5 etags and metadata, presigned GET tokens, and lifecycle
rules with an expiry sweeper.
"""

from repro.storage.objects import StoredObject, compute_etag
from repro.storage.chunkstore import (
    CHUNK_BYTES,
    ChunkRef,
    ChunkStore,
    ChunkedObject,
    Manifest,
    split_chunks,
)
from repro.storage.buildcache import BuildCache, CacheEntry, image_cache_key
from repro.storage.lifecycle import LifecycleRule
from repro.storage.object_store import Bucket, ObjectStore
from repro.storage.presign import PresignedToken

__all__ = [
    "StoredObject",
    "compute_etag",
    "CHUNK_BYTES",
    "ChunkRef",
    "ChunkStore",
    "ChunkedObject",
    "Manifest",
    "split_chunks",
    "BuildCache",
    "CacheEntry",
    "image_cache_key",
    "LifecycleRule",
    "Bucket",
    "ObjectStore",
    "PresignedToken",
]
