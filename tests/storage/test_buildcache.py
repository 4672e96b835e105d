"""Unit tests for the content-keyed build artifact cache."""

import pytest

from repro.storage import buildcache
from repro.storage.buildcache import (
    TTL_SECONDS,
    BuildCache,
    content_key,
    primary_key,
)
from repro.vfs import VirtualFileSystem

pytestmark = pytest.mark.buildcache

IMG = "img-layer-digest"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_fs(files=None):
    fs = VirtualFileSystem()
    for path, data in (files or {}).items():
        parent = path.rsplit("/", 1)[0]
        if parent:
            fs.makedirs(parent)
        fs.write_file(path, data if isinstance(data, bytes)
                      else data.encode())
    return fs


def run_command(cache, fs, command="make", cwd="/build", reads=(),
                writes=None, stdout="out\n", exit_code=0, **kw):
    """Simulate one traced command: read ``reads``, write ``writes``."""
    trace = fs.start_tracking()
    for path in reads:
        if fs.isfile(path):
            fs.read_file(path)
    for path, data in (writes or {}).items():
        fs.write_file(path, data)
    fs.stop_tracking()
    return cache.capture(IMG, cwd, command, trace, fs,
                         stdout, "", exit_code, 3.0, 2, **kw)


class TestKeys:
    def test_primary_key_separates_command_cwd_image(self):
        base = primary_key(IMG, "/build", "make")
        assert base == primary_key(IMG, "/build", "make")
        assert base != primary_key(IMG, "/build", "make -j")
        assert base != primary_key(IMG, "/src", "make")
        assert base != primary_key("other", "/build", "make")

    def test_content_key_is_input_order_insensitive(self):
        a = content_key("p", {"/a": "file:1", "/b": "dir"})
        b = content_key("p", {"/b": "dir", "/a": "file:1"})
        assert a == b
        assert a != content_key("p", {"/a": "file:2", "/b": "dir"})


class TestLookupAndInvalidation:
    def test_hit_after_capture(self):
        cache = BuildCache(FakeClock())
        fs = make_fs({"/src/main.cu": "int main(){}"})
        run_command(cache, fs, reads=["/src/main.cu"],
                    writes={"/build/out": b"bin"})
        entry = cache.lookup(IMG, "/build", "make", fs)
        assert entry is not None
        assert entry.exit_code == 0
        assert cache.hit_count == 1 and cache.miss_count == 0

    def test_read_content_change_misses(self):
        cache = BuildCache(FakeClock())
        fs = make_fs({"/src/main.cu": "v1"})
        run_command(cache, fs, reads=["/src/main.cu"])
        fs.write_file("/src/main.cu", b"v2")
        assert cache.lookup(IMG, "/build", "make", fs) is None
        assert cache.miss_count == 1

    def test_unread_file_change_still_hits(self):
        cache = BuildCache(FakeClock())
        fs = make_fs({"/src/main.cu": "v1", "/src/notes.txt": "a"})
        run_command(cache, fs, reads=["/src/main.cu"])
        fs.write_file("/src/notes.txt", b"b")
        assert cache.lookup(IMG, "/build", "make", fs) is not None

    def test_tree_enumeration_invalidates_on_new_file(self):
        cache = BuildCache(FakeClock())
        fs = make_fs({"/src/a.cu": "a"})
        trace = fs.start_tracking()
        list(fs.iter_files("/src"))
        fs.stop_tracking()
        cache.capture(IMG, "/build", "make", trace, fs, "", "", 0, 1.0, 0)
        assert cache.lookup(IMG, "/build", "make", fs) is not None
        fs.write_file("/src/b.cu", b"new source nothing read")
        assert cache.lookup(IMG, "/build", "make", fs) is None

    def test_absence_probe_invalidates_when_file_appears(self):
        cache = BuildCache(FakeClock())
        fs = make_fs()
        trace = fs.start_tracking()
        fs.exists("/build/Makefile")
        fs.stop_tracking()
        cache.capture(IMG, "/build", "cfg", trace, fs, "", "", 0, 1.0, 0)
        assert cache.lookup(IMG, "/build", "cfg", fs) is not None
        fs.makedirs("/build")
        fs.write_file("/build/Makefile", b"all:")
        assert cache.lookup(IMG, "/build", "cfg", fs) is None

    def test_multiple_entries_per_primary(self):
        """Two source versions coexist under one primary key; each hits
        against the matching tree (ccache direct-mode behaviour)."""
        cache = BuildCache(FakeClock())
        fs = make_fs({"/src/main.cu": "v1"})
        run_command(cache, fs, reads=["/src/main.cu"], stdout="built v1\n")
        fs.write_file("/src/main.cu", b"v2")
        run_command(cache, fs, reads=["/src/main.cu"], stdout="built v2\n")
        assert cache.lookup(IMG, "/build", "make", fs).stdout == "built v2\n"
        fs.write_file("/src/main.cu", b"v1")
        assert cache.lookup(IMG, "/build", "make", fs).stdout == "built v1\n"
        assert len(cache._entries) == 2

    def test_nonzero_exit_is_cacheable(self):
        cache = BuildCache(FakeClock())
        fs = make_fs({"/src/bad.cu": "COMPILE_ERROR"})
        run_command(cache, fs, reads=["/src/bad.cu"], exit_code=2,
                    stdout="", )
        entry = cache.lookup(IMG, "/build", "make", fs)
        assert entry is not None and entry.exit_code == 2


class TestReplay:
    def test_apply_replays_output_tree(self):
        cache = BuildCache(FakeClock())
        fs = make_fs({"/src/main.cu": "v1"})
        trace = fs.start_tracking()
        fs.read_file("/src/main.cu")
        fs.makedirs("/build/CMakeFiles")
        fs.write_file("/build/ece408", b"\x7fELF binary", executable=True)
        fs.stop_tracking()
        cache.capture(IMG, "/build", "make", trace, fs, "ok\n", "", 0,
                      3.0, 2)
        entry = cache.lookup(IMG, "/build", "make", fs)

        fresh = make_fs({"/src/main.cu": "v1"})
        replayed_bytes = cache.apply(entry, fresh)
        assert fresh.isdir("/build/CMakeFiles")
        assert fresh.read_file("/build/ece408") == b"\x7fELF binary"
        assert fresh._resolve_file("/build/ece408").executable
        assert replayed_bytes == entry.bytes

    def test_apply_replays_removals(self):
        cache = BuildCache(FakeClock())
        fs = make_fs({"/build/stale.o": "old"})
        trace = fs.start_tracking()
        fs.remove("/build/stale.o")
        fs.stop_tracking()
        cache.capture(IMG, "/build", "clean", trace, fs, "", "", 0, 0.1, 0)
        entry = cache.lookup(IMG, "/build", "clean", fs)
        fresh = make_fs({"/build/stale.o": "old"})
        cache.apply(entry, fresh)
        assert not fresh.exists("/build/stale.o")


class TestBlobSharingAndEviction:
    def test_identical_outputs_share_one_blob(self):
        cache = BuildCache(FakeClock())
        blob = b"same binary payload"
        fs1 = make_fs({"/src/main.cu": "student one"})
        run_command(cache, fs1, reads=["/src/main.cu"],
                    writes={"/build/ece408": blob})
        fs2 = make_fs({"/src/main.cu": "student two"})
        run_command(cache, fs2, reads=["/src/main.cu"],
                    writes={"/build/ece408": blob})
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["blobs"] == 1
        assert stats["blob_bytes"] == len(blob)
        assert cache.verify() == []

    def test_evicting_one_sharer_keeps_the_blob(self):
        clock = FakeClock()
        cache = BuildCache(clock)
        blob = b"shared"
        fs1 = make_fs({"/src/a.cu": "a"})
        run_command(cache, fs1, command="make a", reads=["/src/a.cu"],
                    writes={"/build/out": blob})
        clock.now = 0.6 * TTL_SECONDS
        fs2 = make_fs({"/src/b.cu": "b"})
        run_command(cache, fs2, command="make b", reads=["/src/b.cu"],
                    writes={"/build/out": blob})
        clock.now = 1.5 * TTL_SECONDS  # first idle 1.5 ttl; second 0.9
        cache._evict()
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["blobs"] == 1
        assert cache.verify() == []
        clock.now = 2.5 * TTL_SECONDS
        cache._evict()
        assert cache.stats() == dict(cache.stats(), entries=0, blobs=0,
                                     blob_bytes=0)

    def test_lru_byte_budget_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(buildcache, "MAX_BYTES", 100)
        clock = FakeClock()
        cache = BuildCache(clock)
        for i in range(5):
            clock.now = float(i)
            fs = make_fs({"/src/main.cu": f"v{i}"})
            run_command(cache, fs, reads=["/src/main.cu"],
                        writes={"/build/out": bytes([i]) * 40})
        assert cache.total_blob_bytes <= 100
        assert cache.evict_count >= 3
        assert cache.verify() == []
        # The newest entry survived.
        fs = make_fs({"/src/main.cu": "v4"})
        assert cache.lookup(IMG, "/build", "make", fs) is not None

    def test_recapture_same_key_replaces_entry(self):
        cache = BuildCache(FakeClock())
        fs = make_fs({"/src/main.cu": "v1"})
        run_command(cache, fs, reads=["/src/main.cu"],
                    writes={"/build/out": b"first"})
        run_command(cache, fs, reads=["/src/main.cu"],
                    writes={"/build/out": b"second"})
        assert len(cache._entries) == 1
        assert cache.stats()["blobs"] == 1
        assert cache.verify() == []


class TestSnapshotRestore:
    def _populated(self):
        cache = BuildCache(FakeClock())
        blob = b"shared artifact"
        for i, cmd in enumerate(("cmake /src", "make")):
            fs = make_fs({"/src/main.cu": "same"})
            run_command(cache, fs, command=cmd, reads=["/src/main.cu"],
                        writes={"/build/out": blob},
                        source_digest="srcdigest")
        return cache

    def test_round_trip_rebuilds_refcounts(self):
        cache = self._populated()
        snap = cache.to_snapshot()
        restored = BuildCache(FakeClock())
        summary = restored.install_snapshot(snap)
        assert summary["entries"] == 2
        assert summary["dropped_entries"] == 0
        assert restored.verify() == []
        assert restored.stats()["blobs"] == 1  # still shared, no dupes
        assert restored.total_blob_bytes == cache.total_blob_bytes
        # Entries still hit after restore.
        fs = make_fs({"/src/main.cu": "same"})
        assert restored.lookup(IMG, "/build", "make", fs) is not None
        # The scheduler's hit predictor memory survived too.
        assert restored.seen_source("srcdigest")

    def test_torn_entry_dropped_not_half_restored(self):
        cache = self._populated()
        snap = cache.to_snapshot()
        snap["blobs"] = {}  # lose every payload
        restored = BuildCache(FakeClock())
        summary = restored.install_snapshot(snap)
        assert summary["entries"] == 0
        assert summary["dropped_entries"] == 2
        assert restored.verify() == []

    def test_json_round_trip(self):
        import json

        cache = self._populated()
        snap = json.loads(json.dumps(cache.to_snapshot()))
        restored = BuildCache(FakeClock())
        restored.install_snapshot(snap)
        assert restored.verify() == []
        assert len(restored._entries) == 2
