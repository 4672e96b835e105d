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

Each chunk is deflated once, when the store first sees it (``zlib``
level 1), and the deflated form is the only one held: the store keeps
it, :meth:`ChunkStore.store` hands it to the write-ahead log, and the
checkpoint writes it.  Bytes are inflated only to assemble a payload;
a chunk that does not inflate to its manifest size is damaged, and
raises :class:`~repro.errors.StorageError`.  Every count the store
reports (``unique_bytes``, ``dedup_ratio``, freed and orphaned bytes)
is in raw, uncompressed bytes.  A snapshot section or WAL record marked
with ``chunk_codec`` holds deflated chunks; one without the mark was
written when chunks were held raw, and is deflated as it is read.

A :class:`Manifest` is the content address of a whole payload — the
ordered list of chunk digests.  A :class:`ChunkedObject` is a
:class:`~repro.storage.objects.StoredObject` whose payload lives in the
chunk store and is assembled on demand, so a thousand near-identical
archives cost roughly one archive of real memory.
"""

from __future__ import annotations

import base64
import hashlib
import json
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.objects import StoredObject

#: Default chunk size.  Real systems use megabytes; simulated projects are
#: kilobytes, so the default keeps several chunks per archive (dedup has
#: nothing to share when every payload is a single chunk).
CHUNK_BYTES = 4096

#: The codec every held chunk is in; snapshot sections and WAL records
#: that hold deflated chunks name it as their ``chunk_codec``.
CHUNK_CODEC = "zlib"

#: zlib level 1: twice as fast as the default 6 for ~15 % more bytes.
DEFLATE_LEVEL = 1


def deflate_chunk(chunk: bytes) -> bytes:
    """The stored form of a raw chunk."""
    return zlib.compress(chunk, DEFLATE_LEVEL)


def inflate_chunk(blob: bytes, digest: str,
                  size: Optional[int] = None) -> bytes:
    """The raw bytes of a stored chunk; ``StorageError`` when the blob
    does not inflate, or inflates to a length other than ``size``."""
    try:
        chunk = zlib.decompress(blob)
    except zlib.error as exc:
        raise StorageError(f"chunk {digest[:12]} is damaged: {exc}") from None
    if size is not None and len(chunk) != size:
        raise StorageError(
            f"chunk {digest[:12]} is damaged: inflates to {len(chunk)} B, "
            f"not {size} B")
    return chunk


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
    """Reference-counted storage of unique chunks, each held deflated.

    Chunks are shared across every manifest (and therefore across
    students, attempts, and buckets); a chunk is freed only when the last
    manifest referencing it is released — so lifecycle expiry of one
    upload can never corrupt another that happens to share content.
    """

    def __init__(self):
        self._chunks: Dict[str, bytes] = {}   # digest -> deflated chunk
        self._refs: Dict[str, int] = {}
        self._unique_bytes = 0         # raw bytes of the chunks held
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

    def store(self, data: bytes, manifest: Optional[Manifest] = None
              ) -> Tuple[Manifest, Dict[str, bytes]]:
        """Ingest a payload; returns ``(manifest, fresh)``, where
        ``fresh`` maps digest to the deflated form of each chunk the
        store did not hold before this call.

        ``manifest`` is the uploader's chunking of ``data``; without one
        the store chunks and hashes ``data`` itself.  An uploader's
        manifest is trusted for the chunks the store already holds and
        checked for the rest, the bytes that cross the wire (git's and
        restic's protocol): each must hash to its digest, and the chunk
        sizes must be positive and add up to ``len(data)``; otherwise
        ``StorageError``, and nothing is stored.

        A new chunk is deflated here, once.  Only fresh chunks cost
        memory; every chunk of the manifest (fresh or shared) gains a
        reference.
        """
        claimed = manifest is not None
        if not claimed:
            manifest = Manifest.from_bytes(data)
        elif manifest.total_size != len(data):
            raise StorageError(
                f"manifest {manifest.digest[:12]} describes "
                f"{manifest.total_size} B, the upload is {len(data)} B")
        new: Dict[str, bytes] = {}
        offset = 0
        for ref in manifest.chunks:
            if ref.size < 1:
                raise StorageError(
                    f"manifest {manifest.digest[:12]} lists a chunk of "
                    f"{ref.size} B")
            if ref.digest not in self._chunks and ref.digest not in new:
                new[ref.digest] = data[offset:offset + ref.size]
            offset += ref.size
        if claimed:
            for digest, chunk in new.items():
                if hash_chunk(chunk) != digest:
                    raise StorageError(
                        f"chunk {digest[:12]} of manifest "
                        f"{manifest.digest[:12]} does not match its bytes")
        fresh = {digest: deflate_chunk(chunk) for digest, chunk in new.items()}
        for ref in manifest.chunks:
            if ref.digest in fresh and ref.digest not in self._chunks:
                self._chunks[ref.digest] = fresh[ref.digest]
                self._refs[ref.digest] = 0
                self._unique_bytes += ref.size
                self.total_ingested_bytes += ref.size
            else:
                self.total_deduped_bytes += ref.size
            self._refs[ref.digest] += 1
        self.total_logical_bytes += manifest.total_size
        return manifest, fresh

    def release(self, manifest: Manifest) -> int:
        """Drop one reference per chunk; returns raw bytes actually
        freed."""
        freed = 0
        for ref in manifest.chunks:
            count = self._refs.get(ref.digest)
            if count is None:
                continue
            if count <= 1:
                del self._refs[ref.digest]
                if self._chunks.pop(ref.digest, None) is not None:
                    freed += ref.size
            else:
                self._refs[ref.digest] = count - 1
        self._unique_bytes -= freed
        self.total_logical_bytes -= manifest.total_size
        return freed

    def assemble(self, manifest: Manifest,
                 carried: Optional[Dict[str, bytes]] = None) -> bytes:
        """Rebuild the payload bytes a manifest describes, taking a
        deflated chunk from ``carried`` (digest to bytes) before the
        store.  A missing or damaged chunk raises ``StorageError``."""
        parts = []
        for ref in manifest.chunks:
            blob = carried.get(ref.digest) if carried else None
            if blob is None:
                blob = self._chunks.get(ref.digest)
            if blob is None:
                raise StorageError(
                    f"chunk {ref.digest[:12]} missing from store "
                    f"(manifest {manifest.digest[:12]})")
            parts.append(inflate_chunk(blob, ref.digest, ref.size))
        return b"".join(parts)

    # -- snapshot / recovery -------------------------------------------------

    def to_snapshot(self) -> dict:
        """The deflated chunks as held (bytes, not copies) plus the
        totals.  The snapshot writer base64-encodes one chunk at a
        time."""
        return {
            "chunk_codec": CHUNK_CODEC,
            "chunks": dict(self._chunks),
            "chunk_totals": {"ingested": self.total_ingested_bytes,
                             "deduped": self.total_deduped_bytes},
        }

    def install_snapshot(self, snap: dict) -> None:
        """Load the chunks (bytes, or the base64 text a snapshot file
        holds).  A section without ``chunk_codec`` holds raw chunks and
        is deflated here.  Refcounts and ``unique_bytes`` wait for
        :meth:`rebuild_refcounts`."""
        codec = snap.get("chunk_codec")
        if codec not in (None, CHUNK_CODEC):
            raise StorageError(f"unknown chunk codec {codec!r}")
        self._chunks = {}
        for digest, blob in snap.get("chunks", {}).items():
            if not isinstance(blob, bytes):
                blob = base64.b64decode(blob)
            self._chunks[digest] = blob if codec else deflate_chunk(blob)
        self._refs = {}
        self._unique_bytes = 0
        totals = snap.get("chunk_totals", {})
        self.total_ingested_bytes = int(totals.get("ingested", 0))
        self.total_deduped_bytes = int(totals.get("deduped", 0))

    def rebuild_refcounts(self, manifests: List[Manifest]) -> dict:
        """Recompute ``_refs`` from the live manifests after a restore.

        Refcounts are soft state — the ground truth is "which manifests
        are still reachable from a bucket".  Chunks no manifest references
        (their objects were deleted after the chunk was snapshotted) are
        dropped; logical-byte accounting is recomputed the same way.
        Every held chunk is inflated once, so a damaged one raises
        ``StorageError`` before anything changes.
        """
        refs: Dict[str, int] = {}
        sizes: Dict[str, int] = {}
        logical = 0
        for manifest in manifests:
            for ref in manifest.chunks:
                refs[ref.digest] = refs.get(ref.digest, 0) + 1
                sizes[ref.digest] = ref.size
            logical += manifest.total_size
        orphaned = []
        unique = freed = 0
        for digest, blob in self._chunks.items():
            size = sizes.get(digest)
            if size is None:
                orphaned.append(digest)
                freed += len(inflate_chunk(blob, digest))
            else:
                unique += len(inflate_chunk(blob, digest, size))
        for digest in orphaned:
            del self._chunks[digest]
        self._refs = refs
        self._unique_bytes = unique
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
        """Raw bytes of the unique chunks held (a running total)."""
        return self._unique_bytes

    def dedup_ratio(self) -> float:
        """Live logical bytes per raw byte actually held (1.0 = no
        sharing)."""
        unique = self._unique_bytes
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
