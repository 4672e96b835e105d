"""Content-keyed build-artifact cache (incremental builds).

Resubmission storms re-run the same ``cmake``/``make`` command list over
a source tree whose edits a build command frequently never reads (tuning
files, READMEs).  This module is the ccache-direct-mode answer: each
executed build command is recorded as a :class:`CacheEntry` under a
*primary key* of ``(image digest, cwd, command)``, together with the
exact filesystem observations the command made — file content digests,
existence probes, directory enumerations — as captured by
:class:`repro.vfs.AccessTrace`.  A later identical command *hits* when
some recorded entry's every observation still holds against the live
container filesystem; the worker then replays the recorded output tree,
streams, and exit code instead of executing.

A lookup does not visit entries.  Per primary key the cache indexes the
observation *shapes* present — which paths were observed and how, without
the values (:func:`shape_of`).  For each shape it observes every path
once against the live tree (shared between shapes), derives the content
key those observations would have been stored under, and probes the entry
table; the candidate must record exactly the live observations, and a
path whose live state cannot produce the recorded kind of observation (a
file where a directory was walked, an unknown kind) fails its whole shape.
Among hits of different shapes the most recently used entry wins.  The
cost is (shapes x their paths), however many builds are cached.

Three properties matter:

- **Content addressing with sharing.**  Output file payloads live in a
  refcounted blob store keyed by content digest, so a hundred entries
  whose ``make`` produced the same binary hold it once ("no duplicate
  artifacts"), and eviction of one entry can never corrupt another.
- **Sound invalidation.**  Reads invalidate on content; probes on
  existence/type; enumerations (``walk``/``iter_files``) on the *name
  listing* — adding a source file misses even though nothing read it.
- **Soft refcounts and index.**  Like the chunk store, blob refcounts —
  and the shape index — are derived state: snapshot/restore rebuilds
  them from the surviving entries.

Entries are bounded by an LRU byte budget and a TTL; hit/miss/evict
events and counters flow through the obs layer when wired.
"""

from __future__ import annotations

import base64
import hashlib
import json
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.obs.events import EventType
from repro.vfs.filesystem import (
    AccessTrace,
    VirtualFileSystem,
    descriptor_kind,
    file_digest,
)

#: Byte budget for unique artifact blobs.
MAX_BYTES = 256 << 20
#: Entry TTL (idle time before eviction) — two weeks of sim time,
#: comfortably past any one project deadline cycle.
TTL_SECONDS = 14 * 24 * 3600.0
#: Source-tree digests the hit predictor remembers (LRU).
SEEN_SOURCES_LIMIT = 4096


def image_cache_key(image) -> str:
    """Digest of an image's effective layer digests (order-free)."""
    acc = hashlib.sha256()
    for digest in sorted(layer.digest for layer in image.effective_layers()):
        acc.update(digest.encode("ascii"))
        acc.update(b"\n")
    return acc.hexdigest()


def primary_key(image_key: str, cwd: str, command: str) -> str:
    """The ccache-style *direct mode* lookup key: what is about to run,
    where, on which image — before any source content is considered."""
    return hashlib.sha256(
        ("%s\0%s\0%s" % (image_key, cwd, command)).encode("utf-8")).hexdigest()


def content_key(primary: str, inputs: Dict[str, str]) -> str:
    """Primary key refined by the command's observed input set."""
    acc = hashlib.sha256(primary.encode("ascii"))
    acc.update(json.dumps(inputs, sort_keys=True).encode("utf-8"))
    return acc.hexdigest()


def shape_of(inputs: Dict[str, str]) -> tuple:
    """An input set's observation *shape*: which paths were observed and
    how (``(path, descriptor kind)``, sorted) — everything but the values."""
    return tuple(sorted((path, descriptor_kind(descriptor))
                        for path, descriptor in inputs.items()))


class CacheEntry:
    """One recorded command execution: inputs observed, outputs produced."""

    __slots__ = ("key", "primary", "command", "cwd", "inputs", "outputs",
                 "stdout", "stderr", "exit_code", "charged_seconds",
                 "rng_draws", "source_digest", "bytes",
                 "created_at", "last_used_at", "hits", "shape", "used")

    def __init__(self, key: str, primary: str, command: str, cwd: str,
                 inputs: Dict[str, str], outputs: List[dict],
                 stdout: str, stderr: str, exit_code: int,
                 charged_seconds: float, rng_draws: int,
                 source_digest: Optional[str], artifact_bytes: int,
                 created_at: float):
        self.key = key
        self.primary = primary
        self.command = command
        self.cwd = cwd
        self.inputs = inputs
        self.outputs = outputs
        self.stdout = stdout
        self.stderr = stderr
        self.exit_code = int(exit_code)
        self.charged_seconds = float(charged_seconds)
        self.rng_draws = int(rng_draws)
        self.source_digest = source_digest
        self.bytes = int(artifact_bytes)
        self.created_at = float(created_at)
        self.last_used_at = float(created_at)
        self.hits = 0
        self.shape = shape_of(inputs)
        #: The cache's use tick at capture/last hit; larger = more recent.
        self.used = 0

    def blob_digests(self) -> List[str]:
        return [out["blob"] for out in self.outputs if out["kind"] == "file"]

    def to_doc(self) -> dict:
        return {
            "key": self.key,
            "primary": self.primary,
            "command": self.command,
            "cwd": self.cwd,
            "inputs": dict(self.inputs),
            "outputs": [dict(out) for out in self.outputs],
            "stdout": self.stdout,
            "stderr": self.stderr,
            "exit_code": self.exit_code,
            "charged_seconds": self.charged_seconds,
            "rng_draws": self.rng_draws,
            "source_digest": self.source_digest,
            "bytes": self.bytes,
            "created_at": self.created_at,
            "last_used_at": self.last_used_at,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "CacheEntry":
        entry = cls(doc["key"], doc["primary"], doc["command"], doc["cwd"],
                    dict(doc["inputs"]), [dict(o) for o in doc["outputs"]],
                    doc["stdout"], doc["stderr"], doc["exit_code"],
                    doc["charged_seconds"], doc["rng_draws"],
                    doc.get("source_digest"), doc["bytes"],
                    doc["created_at"])
        entry.last_used_at = float(doc.get("last_used_at",
                                           doc["created_at"]))
        return entry

    def __repr__(self):
        return (f"<CacheEntry {self.key[:8]} {self.command!r} "
                f"exit={self.exit_code} {self.bytes}B hits={self.hits}>")


class BuildCache:
    """Refcounted, LRU/TTL-evicted store of cached build commands."""

    def __init__(self, clock: Callable[[], float], events=None):
        self._clock = clock
        self.events = events
        #: content key → entry, LRU order (oldest first).
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: primary key → {observation shape → content keys recorded with
        #: it}.  Derived state like the blob refcounts: never snapshotted.
        self._shapes: Dict[str, Dict[tuple, Set[str]]] = {}
        self._use_tick = 0
        #: blob digest → payload, shared across entries.
        self._blobs: Dict[str, bytes] = {}
        self._blob_refs: Dict[str, int] = {}
        self.total_blob_bytes = 0
        self.hit_count = 0
        self.miss_count = 0
        self.evict_count = 0
        #: Live filesystem observations lookups have made, in total.
        self.observation_count = 0
        #: Source-tree digests that completed a cached build — the
        #: scheduler's hit predictor consults this (bounded LRU).
        self._seen_sources: "OrderedDict[str, None]" = OrderedDict()

    # -- lookup --------------------------------------------------------------

    def lookup(self, image_key: str, cwd: str, command: str,
               fs: VirtualFileSystem,
               job_id: Optional[str] = None) -> Optional[CacheEntry]:
        """Return the most recently used entry whose observations all hold.

        Each shape recorded under the primary is observed once against
        the live tree and probed by content key, so the cost depends on
        the shapes and their paths, not on how many entries are cached.
        """
        primary = primary_key(image_key, cwd, command)
        observed: Dict[tuple, Optional[str]] = {}
        best: Optional[CacheEntry] = None
        for shape in self._shapes.get(primary, ()):
            live: Dict[str, str] = {}
            for item in shape:
                if item not in observed:
                    observed[item] = fs.observe(*item)
                descriptor = observed[item]
                if descriptor is None:  # wrong node type or unknown kind
                    break
                live[item[0]] = descriptor
            else:
                entry = self._entries.get(content_key(primary, live))
                if (entry is not None and entry.primary == primary
                        and entry.inputs == live
                        and (best is None or entry.used > best.used)):
                    best = entry
        self.observation_count += len(observed)
        if best is None:
            self.miss_count += 1
            if self.events is not None:
                self.events.emit(EventType.BUILDCACHE_MISS,
                                 job_id=job_id, command=command)
            return None
        best.hits += 1
        best.last_used_at = self._clock()
        self._entries.move_to_end(best.key)
        self._touch(best)
        self.hit_count += 1
        if self.events is not None:
            self.events.emit(EventType.BUILDCACHE_HIT,
                             job_id=job_id, command=command,
                             key=best.key[:16], artifact_bytes=best.bytes)
        return best

    def bucket(self, primary: str) -> Set[str]:
        """A copy of the content keys cached under ``primary`` — what one
        probe of the shared cache fetches for it."""
        return set().union(*self._shapes.get(primary, {}).values())

    def _touch(self, entry: CacheEntry) -> None:
        self._use_tick += 1
        entry.used = self._use_tick

    def _link_entry(self, entry: CacheEntry) -> None:
        """Publish ``entry`` as the most recently used one."""
        self._entries[entry.key] = entry
        self._shapes.setdefault(entry.primary, {}).setdefault(
            entry.shape, set()).add(entry.key)
        self._touch(entry)

    # -- capture -------------------------------------------------------------

    def capture(self, image_key: str, cwd: str, command: str,
                trace: AccessTrace, fs: VirtualFileSystem,
                stdout: str, stderr: str, exit_code: int,
                charged_seconds: float, rng_draws: int,
                source_digest: Optional[str] = None,
                job_id: Optional[str] = None) -> CacheEntry:
        """Record one executed command's observations and output tree.

        Publication is atomic with respect to the simulation: no yields
        happen inside, so a worker crash either sees no entry or a whole
        one — never a partial artifact.
        """
        primary = primary_key(image_key, cwd, command)
        inputs = dict(trace.inputs)
        key = content_key(primary, inputs)
        outputs, blobs, artifact_bytes = self._snapshot_writes(
            fs, trace.writes)
        now = self._clock()

        old = self._entries.pop(key, None)
        if old is not None:
            self._unlink_entry(old)

        for digest, payload in blobs.items():
            if digest not in self._blobs:
                self._blobs[digest] = payload
                self._blob_refs[digest] = 0
                self.total_blob_bytes += len(payload)
        for out in outputs:
            if out["kind"] == "file":
                self._blob_refs[out["blob"]] += 1

        entry = CacheEntry(key, primary, command, cwd, inputs, outputs,
                           stdout, stderr, exit_code, charged_seconds,
                           rng_draws, source_digest, artifact_bytes, now)
        self._link_entry(entry)
        if source_digest:
            self.note_source(source_digest)
        self._evict(job_id=job_id)
        return entry

    @staticmethod
    def _snapshot_writes(fs: VirtualFileSystem, writes) \
            -> Tuple[List[dict], Dict[str, bytes], int]:
        """Fold a trace's written paths into replayable output records.

        Sorted order puts parents before children, so replay can apply
        records sequentially.  Directories expand to their final subtree
        (a ``make`` that wrote into a directory it also created must
        replay the whole result).
        """
        outputs: List[dict] = []
        blobs: Dict[str, bytes] = {}
        seen: set = set()
        total = 0

        def add_file(path: str) -> None:
            nonlocal total
            if path in seen:
                return
            seen.add(path)
            data = fs.read_file(path)
            digest = file_digest(data)
            blobs[digest] = data
            executable = bool(fs.stat(path).get("executable"))
            outputs.append({"path": path, "kind": "file", "blob": digest,
                            "executable": executable})
            total += len(data)

        def add_dir(path: str) -> None:
            if path in seen:
                return
            seen.add(path)
            outputs.append({"path": path, "kind": "dir"})
            for dirpath, dirnames, filenames in fs.walk(path):
                for name in dirnames:
                    sub = (dirpath.rstrip("/") + "/" + name
                           if dirpath != "/" else "/" + name)
                    if sub not in seen:
                        seen.add(sub)
                        outputs.append({"path": sub, "kind": "dir"})
                for name in filenames:
                    sub = (dirpath.rstrip("/") + "/" + name
                           if dirpath != "/" else "/" + name)
                    add_file(sub)

        for path in sorted(writes):
            if fs.isfile(path):
                add_file(path)
            elif fs.isdir(path):
                add_dir(path)
            elif path not in seen:
                seen.add(path)
                outputs.append({"path": path, "kind": "absent"})
        return outputs, blobs, total

    # -- replay --------------------------------------------------------------

    def apply(self, entry: CacheEntry, fs: VirtualFileSystem) -> int:
        """Materialize a hit's recorded output tree into ``fs``.

        Returns the artifact bytes written (the replay transfer size).
        """
        for out in entry.outputs:
            path = out["path"]
            kind = out["kind"]
            if kind == "dir":
                fs.makedirs(path)
            elif kind == "file":
                payload = self._blobs.get(out["blob"])
                if payload is None:
                    raise KeyError(
                        f"buildcache blob {out['blob'][:12]} missing "
                        f"(entry {entry.key[:12]})")
                fs.write_file(path, payload,
                              executable=bool(out.get("executable")))
            elif kind == "absent":
                if fs.isfile(path):
                    fs.remove(path)
                elif fs.isdir(path):
                    fs.rmtree(path)
        return entry.bytes

    # -- eviction ------------------------------------------------------------

    def _unlink_entry(self, entry: CacheEntry) -> None:
        shapes = self._shapes[entry.primary]
        shapes[entry.shape].discard(entry.key)
        if not shapes[entry.shape]:
            del shapes[entry.shape]
            if not shapes:
                del self._shapes[entry.primary]
        for digest in entry.blob_digests():
            count = self._blob_refs.get(digest)
            if count is None:
                continue
            if count <= 1:
                del self._blob_refs[digest]
                self.total_blob_bytes -= len(self._blobs.pop(digest, b""))
            else:
                self._blob_refs[digest] = count - 1

    def _evict_one(self, key: str, reason: str,
                   job_id: Optional[str] = None) -> None:
        entry = self._entries.pop(key)
        self._unlink_entry(entry)
        self.evict_count += 1
        if self.events is not None:
            self.events.emit(EventType.BUILDCACHE_EVICT,
                             job_id=job_id, command=entry.command,
                             key=key[:16], reason=reason,
                             artifact_bytes=entry.bytes)

    def _evict(self, job_id: Optional[str] = None) -> None:
        now = self._clock()
        # Entries sit in last-use order (a hit moves its entry to the end,
        # a capture appends), so the expired ones are a prefix.
        while self._entries:
            key, entry = next(iter(self._entries.items()))
            if now - entry.last_used_at <= TTL_SECONDS:
                break
            self._evict_one(key, "ttl", job_id=job_id)
        while self.total_blob_bytes > MAX_BYTES and self._entries:
            key = next(iter(self._entries))
            self._evict_one(key, "lru", job_id=job_id)

    # -- scheduler prediction ------------------------------------------------

    def note_source(self, source_digest: str) -> None:
        self._seen_sources.pop(source_digest, None)
        self._seen_sources[source_digest] = None
        while len(self._seen_sources) > SEEN_SOURCES_LIMIT:
            self._seen_sources.popitem(last=False)

    def seen_source(self, source_digest: Optional[str]) -> bool:
        """Has a build of this exact source tree completed before?"""
        return (source_digest is not None
                and source_digest in self._seen_sources)

    # -- integrity / observability ------------------------------------------

    def verify(self) -> List[str]:
        """Cross-check blob refcounts and byte accounting against the
        entry table; returns a list of problems (empty = consistent)."""
        problems: List[str] = []
        expected_refs: Dict[str, int] = {}
        for entry in self._entries.values():
            for digest in entry.blob_digests():
                expected_refs[digest] = expected_refs.get(digest, 0) + 1
                if digest not in self._blobs:
                    problems.append(
                        f"entry {entry.key[:12]} references missing blob "
                        f"{digest[:12]}")
        if expected_refs != self._blob_refs:
            problems.append(
                f"blob refcounts diverge: expected {len(expected_refs)} "
                f"referenced blobs, table has {len(self._blob_refs)}")
        actual_bytes = sum(len(b) for b in self._blobs.values())
        if actual_bytes != self.total_blob_bytes:
            problems.append(
                f"byte accounting diverges: {self.total_blob_bytes} "
                f"tracked vs {actual_bytes} held")
        orphans = [d for d in self._blobs if d not in expected_refs]
        if orphans:
            problems.append(f"{len(orphans)} orphaned blobs")
        shapes: Dict[str, Dict[tuple, Set[str]]] = {}
        for entry in self._entries.values():
            shapes.setdefault(entry.primary, {}).setdefault(
                entry.shape, set()).add(entry.key)
        if shapes != self._shapes:
            problems.append("shape index diverges from the entry table")
        return problems

    def hit_rate(self) -> float:
        total = self.hit_count + self.miss_count
        return self.hit_count / total if total else 0.0

    def top_entries(self) -> List[dict]:
        """The five most-hit entries."""
        ranked = sorted(self._entries.values(),
                        key=lambda e: (-e.hits, e.key))
        return [{"key": e.key[:16], "command": e.command, "hits": e.hits,
                 "bytes": e.bytes, "exit_code": e.exit_code}
                for e in ranked[:5]]

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "blobs": len(self._blobs),
            "blob_bytes": self.total_blob_bytes,
            "max_bytes": MAX_BYTES,
            "ttl_seconds": TTL_SECONDS,
            "hits": self.hit_count,
            "misses": self.miss_count,
            "evictions": self.evict_count,
            "hit_rate": round(self.hit_rate(), 4),
            "observations": self.observation_count,
            "seen_sources": len(self._seen_sources),
        }

    # -- snapshot / restore --------------------------------------------------

    def to_snapshot(self) -> dict:
        """Durable image of the cache: entries + unique blobs.

        Refcounts, LRU order beyond entry order, and hit/miss counters
        are soft state — the restore path rebuilds or resets them.
        """
        return {
            "entries": [e.to_doc() for e in self._entries.values()],
            "blobs": {d: base64.b64encode(b).decode("ascii")
                      for d, b in self._blobs.items()},
        }

    def install_snapshot(self, snap: dict) -> dict:
        """Replace cache contents from a snapshot; rebuilds refcounts.

        Blobs no surviving entry references are dropped (mirror of
        :meth:`ChunkStore.rebuild_refcounts`).
        """
        blobs = {d: base64.b64decode(b)
                 for d, b in snap.get("blobs", {}).items()}
        self._entries = OrderedDict()
        self._shapes = {}
        self._blobs = {}
        self._blob_refs = {}
        self.total_blob_bytes = 0
        self._seen_sources = OrderedDict()
        dropped = 0
        for doc in snap.get("entries", []):
            entry = CacheEntry.from_doc(doc)
            missing = [d for d in entry.blob_digests() if d not in blobs]
            if missing:  # torn entry: its payload did not survive
                dropped += 1
                continue
            self._link_entry(entry)
            for digest in entry.blob_digests():
                if digest not in self._blobs:
                    payload = blobs[digest]
                    self._blobs[digest] = payload
                    self._blob_refs[digest] = 0
                    self.total_blob_bytes += len(payload)
                self._blob_refs[digest] += 1
            if entry.source_digest:
                self.note_source(entry.source_digest)
        orphaned = len(blobs) - len(self._blobs)
        return {
            "entries": len(self._entries),
            "dropped_entries": dropped,
            "blobs": len(self._blobs),
            "orphaned_blobs": orphaned,
            "blob_bytes": self.total_blob_bytes,
        }


__all__ = [
    "MAX_BYTES", "TTL_SECONDS",
    "image_cache_key", "primary_key", "content_key", "shape_of",
    "CacheEntry", "BuildCache",
]
