"""The shape-indexed build-cache lookup against a linear MRU scan.

``BuildCache.lookup`` observes each recorded *shape* once and probes the
entry table by content key.  The oracle below is the design it replaced,
kept here only as a specification: walk the primary's entries most
recently used first and return the first whose every recorded observation
still holds.  Generated histories of traced commands, edits, lookups,
LRU/TTL eviction and snapshot round-trips must give the same entry (or
miss), the same counters and the same LRU order.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VfsError
from repro.storage import buildcache
from repro.storage.buildcache import BuildCache, primary_key, shape_of
from repro.vfs import VirtualFileSystem, file_digest, tree_signature

pytestmark = pytest.mark.buildcache

IMG = "img"
CWD = "/build"
COMMANDS = ("cmake /src", "make")
FILES = ("/src/a.cu", "/src/b.cu", "/src/sub/c.h")
DIRS = ("/src", "/src/sub", "/nowhere")
ACCESSES = ("read", "exists", "isdir", "listdir", "walk")

contents = st.sampled_from([b"0", b"1", b"22"])
accesses = st.tuples(st.sampled_from(ACCESSES),
                     st.sampled_from(FILES + DIRS))
runs = st.tuples(st.just("run"), st.sampled_from(COMMANDS),
                 st.lists(accesses, max_size=3),
                 st.binary(min_size=24, max_size=40))
lookups = st.tuples(st.just("lookup"), st.sampled_from(COMMANDS))
#: Runs and lookups are drawn three times as often as each other step, so
#: a history holds several entries (and shapes) per primary when probed.
ops = st.one_of(
    runs, runs, runs, lookups, lookups, lookups,
    st.tuples(st.just("edit"), st.sampled_from(FILES), contents),
    st.tuples(st.just("remove"), st.sampled_from(FILES)),
    st.tuples(st.just("advance"), st.floats(0.0, 60.0)),
    st.tuples(st.just("sweep")),
    st.tuples(st.just("restore")),
)


class Clock:
    now = 0.0

    def __call__(self):
        return self.now


def holds(inputs, fs):
    """Reference check of one entry's recorded observations (public VFS
    calls only; tracking is off during a lookup)."""
    for path, descriptor in inputs.items():
        kind, _, value = descriptor.partition(":")
        if descriptor == "absent":
            ok = not fs.exists(path)
        elif descriptor == "dir":
            ok = fs.isdir(path)
        elif descriptor == "file":
            ok = fs.isfile(path)
        elif kind == "file":
            ok = fs.isfile(path) and file_digest(fs.read_file(path)) == value
        elif kind == "tree":
            ok = (fs.isdir(path)
                  and tree_signature(path, fs._resolve_dir(path)) == value)
        elif kind == "list":
            ok = (fs.isdir(path) and file_digest(
                "\n".join(fs.listdir(path)).encode()) == value)
        else:
            ok = False
        if not ok:
            return False
    return True


def linear_mru_scan(cache, primary, fs):
    for entry in reversed(list(cache._entries.values())):
        if entry.primary == primary and holds(entry.inputs, fs):
            return entry.key
    return None


def traced_run(cache, fs, command, touched, payload):
    trace = fs.start_tracking()
    for access, path in touched:
        try:
            if access == "read":
                fs.read_file(path)
            elif access == "listdir":
                fs.listdir(path)
            elif access == "walk":
                list(fs.walk(path))
            else:
                getattr(fs, access)(path)
        except VfsError:
            pass
    fs.write_file("/build/out", payload)
    fs.stop_tracking()
    return cache.capture(IMG, CWD, command, trace, fs, "", "", 0, 1.0, 0)


def check_invariants(cache):
    assert cache.verify() == []
    rebuilt = {}
    for entry in cache._entries.values():
        counts = rebuilt.setdefault(entry.primary, {})
        shape = shape_of(entry.inputs)
        counts[shape] = counts.get(shape, 0) + 1
    assert cache._shapes == rebuilt
    # The MRU tie-break reads ``used``; it must order entries exactly as
    # the LRU table does.
    ticks = [entry.used for entry in cache._entries.values()]
    assert ticks == sorted(set(ticks))


@settings(max_examples=150)
@given(history=st.lists(ops, min_size=20, max_size=60))
def test_indexed_lookup_equals_linear_mru_scan(history):
    with small_budgets():
        indexed_lookup_equals_linear_mru_scan(history)


def small_budgets():
    """A byte budget and TTL the generated histories reach."""
    return mock.patch.multiple(buildcache, MAX_BYTES=200, TTL_SECONDS=100.0)


def indexed_lookup_equals_linear_mru_scan(history):
    clock = Clock()
    cache = BuildCache(clock)
    fs = VirtualFileSystem()
    fs.import_mapping({"/src/a.cu": b"0", "/src/sub/c.h": b"0"})
    fs.makedirs(CWD)
    hits = misses = 0
    for op in history:
        before = list(cache._entries)
        if op[0] == "edit":
            fs.write_file(op[1], op[2])
        elif op[0] == "remove":
            if fs.isfile(op[1]):
                fs.remove(op[1])
        elif op[0] == "run":
            entry = traced_run(cache, fs, *op[1:])
            after = list(cache._entries)
            expected = [k for k in before if k != entry.key] + [entry.key]
            assert after == [k for k in expected if k in set(after)]
        elif op[0] == "lookup":
            primary = primary_key(IMG, CWD, op[1])
            expected = linear_mru_scan(cache, primary, fs)
            entry = cache.lookup(IMG, CWD, op[1], fs)
            assert (entry.key if entry is not None else None) == expected
            hits += expected is not None
            misses += expected is None
            assert list(cache._entries) == (
                before if expected is None
                else [k for k in before if k != expected] + [expected])
            if entry is not None:
                assert entry.last_used_at == clock.now
        elif op[0] == "advance":
            clock.now += op[1]
        elif op[0] == "sweep":
            cache._evict()
        elif op[0] == "restore":
            cache.install_snapshot(json.loads(json.dumps(
                cache.to_snapshot())))
            assert list(cache._entries) == before
        assert (cache.hit_count, cache.miss_count) == (hits, misses)
        check_invariants(cache)


def test_two_matching_shapes_most_recently_used_wins():
    """Two entries of different shapes under one primary both hold; the
    lookup picks the one used last, and flips when the other is used."""
    clock = Clock()
    cache = BuildCache(clock)
    fs = VirtualFileSystem()
    fs.import_mapping({"/src/a.cu": b"0"})
    fs.makedirs(CWD)
    narrow = traced_run(cache, fs, "make", [("read", "/src/a.cu")], b"n" * 8)
    wide = traced_run(cache, fs, "make", [("read", "/src/a.cu"),
                                          ("exists", "/src/b.cu")], b"w" * 8)
    assert narrow.shape != wide.shape
    assert cache.lookup(IMG, CWD, "make", fs) is wide
    fs.write_file("/src/b.cu", b"1")            # only the narrow one holds
    assert cache.lookup(IMG, CWD, "make", fs) is narrow
    fs.remove("/src/b.cu")                      # both hold; narrow is MRU
    assert cache.lookup(IMG, CWD, "make", fs) is narrow
    check_invariants(cache)


def test_unknown_descriptor_kind_never_hits():
    cache = BuildCache(Clock())
    fs = VirtualFileSystem()
    fs.import_mapping({"/src/a.cu": b"0"})
    trace = fs.start_tracking()
    fs.stop_tracking()
    trace.inputs["/src/a.cu"] = "mtime:12345"
    cache.capture(IMG, CWD, "make", trace, fs, "", "", 0, 1.0, 0)
    assert cache.lookup(IMG, CWD, "make", fs) is None
    assert cache.miss_count == 1


class Recorder:
    def __init__(self):
        self.log = []

    def emit(self, kind, **fields):
        self.log.append((kind, fields))


class LinearTtlCache(BuildCache):
    """The eviction pass the prefix walk replaced, kept only as the
    oracle: the TTL sweep checks every entry."""

    def _evict(self, job_id=None):
        now = self._clock()
        expired = [k for k, e in self._entries.items()
                   if now - e.last_used_at > buildcache.TTL_SECONDS]
        for key in expired:
            self._evict_one(key, "ttl", job_id=job_id)
        while self.total_blob_bytes > buildcache.MAX_BYTES and self._entries:
            self._evict_one(next(iter(self._entries)), "lru", job_id=job_id)


@settings(max_examples=150)
@given(history=st.lists(ops, min_size=20, max_size=60))
def test_ttl_sweep_stopping_at_the_first_live_entry_equals_linear_scan(
        history):
    """Entries sit in last-use order, so the expired ones are a prefix:
    the same evictions, in the same order, with the same events."""
    with small_budgets():
        ttl_sweep_equals_linear_scan(history)


def ttl_sweep_equals_linear_scan(history):
    clock = Clock()
    sides = []
    for cls in (BuildCache, LinearTtlCache):
        events = Recorder()
        cache = cls(clock, events=events)
        fs = VirtualFileSystem()
        fs.import_mapping({"/src/a.cu": b"0", "/src/sub/c.h": b"0"})
        fs.makedirs(CWD)
        sides.append((cache, fs, events))
    for op in history:
        if op[0] == "advance":
            clock.now += op[1]
            continue
        for cache, fs, _events in sides:
            if op[0] == "edit":
                fs.write_file(op[1], op[2])
            elif op[0] == "remove":
                if fs.isfile(op[1]):
                    fs.remove(op[1])
            elif op[0] == "run":
                traced_run(cache, fs, *op[1:])
            elif op[0] == "lookup":
                cache.lookup(IMG, CWD, op[1], fs)
            elif op[0] == "sweep":
                cache._evict()
            else:
                cache.install_snapshot(json.loads(json.dumps(
                    cache.to_snapshot())))
        (fast, _, fast_events), (linear, _, linear_events) = sides
        assert list(fast._entries) == list(linear._entries)
        assert fast.evict_count == linear.evict_count
        assert fast_events.log == linear_events.log
        check_invariants(fast)
