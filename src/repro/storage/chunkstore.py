"""Content-addressed chunk storage for deduplicated uploads.

The course's dominant traffic is *re*-submission: the same team uploading
the same project dozens of times with small edits (§V, Figure 4).  The
seed reproduction re-uploaded the full archive every time, so simulated
upload seconds and real object-store memory both grew with the product of
students × attempts.  This module applies the git-style fix (cf.
arXiv:2510.06363, and Ray's shared immutable object store,
arXiv:1712.05889): ``pack_tree`` output is split into fixed-size chunks
keyed by SHA-256, the store keeps each unique chunk exactly once with a
reference count, and an upload transfers only the chunks the store has
never seen plus a small manifest.

A :class:`Manifest` is the content address of a whole payload — the
ordered list of chunk digests.  A :class:`ChunkedObject` is a
:class:`~repro.storage.objects.StoredObject` whose payload lives in the
chunk store and is assembled on demand, so a thousand near-identical
archives cost roughly one archive of real memory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.objects import StoredObject

#: Default chunk size.  Real systems use megabytes; simulated projects are
#: kilobytes, so the default keeps several chunks per archive (dedup has
#: nothing to share when every payload is a single chunk).
CHUNK_BYTES = 4096


def hash_chunk(chunk: bytes) -> str:
    """SHA-256 hex digest — the chunk's content address."""
    return hashlib.sha256(chunk).hexdigest()


def digest_file_map(files: Dict[str, str]) -> str:
    """Canonical digest of a ``{path: content digest}`` file map.

    The source-tree identity used end to end: the client stamps it on the
    job, the worker keys build-cache entries by it, and the scheduler's
    hit predictor matches on it.
    """
    acc = hashlib.sha256()
    for path in sorted(files):
        acc.update(path.encode("utf-8"))
        acc.update(b"\0")
        acc.update(files[path].encode("ascii"))
        acc.update(b"\n")
    return acc.hexdigest()


def split_chunks(data: bytes, chunk_size: int) -> List[bytes]:
    """Split ``data`` into fixed-size chunks (last one may be short)."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return [data[i:i + chunk_size] for i in range(0, len(data), chunk_size)]


@dataclass(frozen=True)
class ChunkRef:
    """One chunk's address and length inside a manifest."""

    digest: str
    size: int


class Manifest:
    """The ordered chunk list describing one payload.

    The manifest is what a client keeps from its previous upload and what
    travels instead of the payload: a resubmission sends only the chunks
    whose digests the store is missing.

    ``files`` optionally maps each archived file path to its content
    digest.  Archive bytes embed mtimes, so two packs of the same tree
    chunk differently — the file map is the *stable* content view: it
    lets the worker derive a source-tree digest without a second unpack,
    and lets a delta encode "which files changed" instead of "which
    chunk boundaries moved".
    """

    __slots__ = ("chunk_size", "total_size", "chunks", "digest", "files")

    def __init__(self, chunk_size: int, chunks: List[ChunkRef],
                 files: Optional[Dict[str, str]] = None):
        self.chunk_size = int(chunk_size)
        self.chunks = list(chunks)
        self.total_size = sum(c.size for c in self.chunks)
        self.files: Dict[str, str] = dict(files or {})
        payload_id = hashlib.sha256()
        for ref in self.chunks:
            payload_id.update(ref.digest.encode("ascii"))
        self.digest = payload_id.hexdigest()

    @classmethod
    def from_bytes(cls, data: bytes,
                   files: Optional[Dict[str, str]] = None) -> "Manifest":
        """Chunk ``data`` locally (no store needed — a pure function)."""
        refs = [ChunkRef(hash_chunk(c), len(c))
                for c in split_chunks(data, CHUNK_BYTES)]
        return cls(CHUNK_BYTES, refs, files=files)

    def to_doc(self) -> dict:
        doc = {
            "chunk_size": self.chunk_size,
            "total_size": self.total_size,
            "chunks": [[c.digest, c.size] for c in self.chunks],
        }
        if self.files:
            doc["files"] = dict(self.files)
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "Manifest":
        return cls(doc["chunk_size"],
                   [ChunkRef(d, s) for d, s in doc["chunks"]],
                   files=doc.get("files"))

    def tree_digest(self) -> Optional[str]:
        """Digest over the sorted ``(path, content digest)`` file map.

        Stable across re-packs of an identical tree (unlike the chunk
        digest, which sees archive mtimes); ``None`` when the manifest
        carries no file map.
        """
        if not self.files:
            return None
        return digest_file_map(self.files)

    def delta(self, base: Optional["Manifest"]) -> List[ChunkRef]:
        """Chunks of ``self`` not present in ``base`` (the client-side
        resubmission delta)."""
        if base is None:
            return list(self.chunks)
        known = {c.digest for c in base.chunks}
        return [c for c in self.chunks if c.digest not in known]

    def delta_doc(self, base: Optional["Manifest"]) -> dict:
        """Git-style delta encoding of ``self`` against ``base``.

        Chunks the base already lists travel as an integer index into the
        base's chunk list; only novel chunks carry their full digest.
        The file map likewise ships only changed/added entries plus the
        names of removed files.  ``delta_wire_size`` of this doc is what
        the manifest costs on the wire when the server holds the base.
        """
        if base is None:
            return self.to_doc()
        index = {c.digest: i for i, c in enumerate(base.chunks)}
        chunks: List[object] = []
        for ref in self.chunks:
            pos = index.get(ref.digest)
            chunks.append(pos if pos is not None else [ref.digest, ref.size])
        doc: dict = {
            "chunk_size": self.chunk_size,
            "total_size": self.total_size,
            "base": base.digest,
            "chunks": chunks,
        }
        if self.files:
            changed = {p: d for p, d in self.files.items()
                       if base.files.get(p) != d}
            removed = sorted(p for p in base.files if p not in self.files)
            files_delta: dict = {}
            if changed:
                files_delta["changed"] = changed
            if removed:
                files_delta["removed"] = removed
            if files_delta:
                doc["files"] = files_delta
        return doc

    def delta_wire_size(self, base: Optional["Manifest"]) -> int:
        """Wire bytes of the manifest when sent as a delta against
        ``base`` (falls back to the full encoding without one)."""
        return len(json.dumps(self.delta_doc(base)).encode("utf-8"))

    def __len__(self) -> int:
        return len(self.chunks)

    def __repr__(self):
        return (f"<Manifest {self.digest[:8]} {len(self.chunks)} chunks "
                f"{self.total_size}B>")


class ChunkStore:
    """Reference-counted storage of unique chunks.

    Chunks are shared across every manifest (and therefore across
    students, attempts, and buckets); a chunk is freed only when the last
    manifest referencing it is released — so lifecycle expiry of one
    upload can never corrupt another that happens to share content.
    """

    def __init__(self):
        self._chunks: Dict[str, bytes] = {}
        self._refs: Dict[str, int] = {}
        self.total_logical_bytes = 0   # live manifest bytes (pre-dedup)
        self.total_ingested_bytes = 0  # unique bytes ever accepted
        self.total_deduped_bytes = 0   # bytes dedup avoided storing

    # -- negotiation ---------------------------------------------------------

    def missing_refs(self, manifest: Manifest) -> List[ChunkRef]:
        """Chunks of ``manifest`` the store does not hold yet — exactly
        what an uploader must put on the wire."""
        seen = set()
        out = []
        for ref in manifest.chunks:
            if ref.digest not in self._chunks and ref.digest not in seen:
                seen.add(ref.digest)
                out.append(ref)
        return out

    def missing_bytes(self, manifest: Manifest) -> int:
        return sum(ref.size for ref in self.missing_refs(manifest))

    # -- ingest / release ----------------------------------------------------

    def store(self, data: bytes) -> Tuple[Manifest, int]:
        """Ingest a payload; returns ``(manifest, new_unique_bytes)``.

        Only chunks the store has never seen cost memory; every chunk of
        the manifest (new or shared) gains a reference.
        """
        manifest = Manifest.from_bytes(data)
        new_bytes = 0
        offset = 0
        for ref in manifest.chunks:
            if ref.digest not in self._chunks:
                self._chunks[ref.digest] = data[offset:offset + ref.size]
                self._refs[ref.digest] = 0
                new_bytes += ref.size
            else:
                self.total_deduped_bytes += ref.size
            self._refs[ref.digest] += 1
            offset += ref.size
        self.total_logical_bytes += manifest.total_size
        self.total_ingested_bytes += new_bytes
        return manifest, new_bytes

    def release(self, manifest: Manifest) -> int:
        """Drop one reference per chunk; returns bytes actually freed."""
        freed = 0
        for ref in manifest.chunks:
            count = self._refs.get(ref.digest)
            if count is None:
                continue
            if count <= 1:
                del self._refs[ref.digest]
                freed += len(self._chunks.pop(ref.digest, b""))
            else:
                self._refs[ref.digest] = count - 1
        self.total_logical_bytes -= manifest.total_size
        return freed

    def assemble(self, manifest: Manifest) -> bytes:
        """Rebuild the payload bytes a manifest describes."""
        parts = []
        for ref in manifest.chunks:
            chunk = self._chunks.get(ref.digest)
            if chunk is None:
                raise StorageError(
                    f"chunk {ref.digest[:12]} missing from store "
                    f"(manifest {manifest.digest[:12]})")
            parts.append(chunk)
        return b"".join(parts)

    # -- recovery ------------------------------------------------------------

    def rebuild_refcounts(self, manifests: List[Manifest]) -> dict:
        """Recompute ``_refs`` from the live manifests after a restore.

        Refcounts are soft state — the ground truth is "which manifests
        are still reachable from a bucket".  Chunks no manifest references
        (their objects were deleted after the chunk was snapshotted) are
        dropped; logical-byte accounting is recomputed the same way.
        """
        refs: Dict[str, int] = {}
        logical = 0
        for manifest in manifests:
            for ref in manifest.chunks:
                refs[ref.digest] = refs.get(ref.digest, 0) + 1
            logical += manifest.total_size
        orphaned = [d for d in self._chunks if d not in refs]
        freed = 0
        for digest in orphaned:
            freed += len(self._chunks.pop(digest))
        self._refs = refs
        self.total_logical_bytes = logical
        return {
            "manifests": len(manifests),
            "chunks": len(self._chunks),
            "orphaned_chunks": len(orphaned),
            "orphaned_bytes": freed,
            "logical_bytes": logical,
        }

    # -- observability -------------------------------------------------------

    @property
    def unique_chunks(self) -> int:
        return len(self._chunks)

    @property
    def unique_bytes(self) -> int:
        return sum(len(c) for c in self._chunks.values())

    def dedup_ratio(self) -> float:
        """Live logical bytes per byte actually held (1.0 = no sharing)."""
        unique = self.unique_bytes
        if unique == 0:
            return 1.0
        return self.total_logical_bytes / unique

    def stats(self) -> dict:
        return {
            "unique_chunks": self.unique_chunks,
            "unique_bytes": self.unique_bytes,
            "logical_bytes": self.total_logical_bytes,
            "deduped_bytes": self.total_deduped_bytes,
            "dedup_ratio": round(self.dedup_ratio(), 4),
        }


class ChunkedObject(StoredObject):
    """A stored object whose payload lives in the chunk store.

    ``data`` is assembled on demand, so N manifest-backed objects sharing
    content hold it once; ``size`` and ``head()`` report the full logical
    payload, keeping bucket accounting identical to a plain put.
    """

    __slots__ = ("manifest", "_chunk_store")

    def __init__(self, key: str, manifest: Manifest,
                 chunk_store: ChunkStore, created_at: float,
                 metadata: Optional[Dict[str, str]] = None,
                 etag: Optional[str] = None, padding_bytes: int = 0):
        if padding_bytes < 0:
            raise ValueError("padding_bytes must be >= 0")
        self.key = key
        self.manifest = manifest
        self._chunk_store = chunk_store
        self.etag = etag or manifest.digest
        self.metadata = dict(metadata or {})
        self.created_at = float(created_at)
        self.last_used_at = float(created_at)
        #: Declared sparse size: synthetic projects are tiny compared to
        #: real student uploads (datasets, checkpoints), so workloads may
        #: declare the bytes a real project would have carried.  Padding
        #: counts toward sizes/transfer accounting but holds no content.
        #: (DESIGN.md substitution for the paper's 100 GB file server.)
        self.padding_bytes = int(padding_bytes)

    @property
    def data(self) -> bytes:
        return self._chunk_store.assemble(self.manifest)

    @property
    def size(self) -> int:
        return self.manifest.total_size + self.padding_bytes

    def __repr__(self):
        return (f"<ChunkedObject {self.key!r} {self.size}B "
                f"chunks={len(self.manifest)} etag={self.etag[:8]}>")
