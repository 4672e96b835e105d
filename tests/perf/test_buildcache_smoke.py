"""Tier-1 guards for the incremental-build acceptance bars.

The build cache must be (nearly) free when it cannot help — a first
build with the cache enabled does one capture per build command and
hashes each thing it traced once, pinned by count not by clock — and
must be *invisible* in results: the grading digest of a whole course is
byte-identical with the cache on and off.
"""

import pytest

import repro.storage.buildcache as buildcache_module
import repro.vfs.filesystem as filesystem_module
from repro.core.config import SystemConfig
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.storage.buildcache import BuildCache
from repro.vfs import VirtualFileSystem
from tests.golden import grading_digest, resubmission_storm

pytestmark = [pytest.mark.perf, pytest.mark.buildcache]

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def _first_build(monkeypatch, cache_enabled: bool):
    """Run one first-time submission; returns ``(system, content hashes
    taken by access tracking and by capture)``."""
    hashed = []
    digest = filesystem_module.file_digest

    def counting(data):
        hashed.append(len(data))
        return digest(data)

    # The two places a build's tracked reads and captured writes hash.
    monkeypatch.setattr(filesystem_module, "file_digest", counting)
    monkeypatch.setattr(buildcache_module, "file_digest", counting)
    config = SystemConfig()
    config.buildcache_enabled = cache_enabled
    system = RaiSystem.standard(num_workers=1, seed=7, config=config)
    client = system.new_client(team="t")
    client.stage_project(FILES)
    hashed.clear()                  # staging hashed nothing we count
    result = system.run(client.submit())
    assert result.status is JobStatus.SUCCEEDED
    return system, len(hashed)


def test_first_build_is_one_capture_and_one_hash_per_traced_path(
        monkeypatch):
    """The cache's worst case — every build command a miss-then-capture,
    no replay to pay for it — costs one lookup that observes nothing, one
    capture, and one content hash per traced input and captured file."""
    system, hashes = _first_build(monkeypatch, cache_enabled=True)
    stats = system.build_cache.stats()
    entries = list(system.build_cache._entries.values())
    assert [e.command for e in entries] == ["cmake /src", "make"]
    assert (stats["misses"], stats["hits"], stats["entries"]) == (2, 0, 2)
    assert stats["observations"] == 0       # nothing cached to check yet
    hashed_inputs = sum(
        descriptor.startswith(("file:", "tree:", "list:"))
        for e in entries for descriptor in e.inputs.values())
    captured_files = sum(out["kind"] == "file"
                         for e in entries for out in e.outputs)
    assert hashed_inputs > 0 and captured_files > 0
    assert hashes == hashed_inputs + captured_files
    _, hashes_off = _first_build(monkeypatch, cache_enabled=False)
    assert hashes_off == 0


def test_grading_digest_identical_cache_on_vs_off():
    on = grading_digest(cache_enabled=True)
    off = grading_digest(cache_enabled=False)
    assert on == off


def test_resubmissions_hit_at_smoke_scale():
    storm = resubmission_storm()
    resubmitted = {r.job_id for r in storm.resubmissions}
    hits, misses = (
        sum(e.fields.get("job_id") in resubmitted
            for e in storm.system.events.query(type=f"buildcache.{kind}"))
        for kind in ("hit", "miss"))
    assert hits >= 0.8 * (hits + misses) > 0
    latencies = sorted(r.finished_at - r.queued_at
                       for r in storm.resubmissions)
    assert latencies[len(latencies) // 2] < 2.0


def test_lookup_observations_do_not_grow_with_cached_builds():
    """The scaling pin, by count not by clock: however many same-shape
    entries one primary holds, a lookup observes each path once."""
    fs = VirtualFileSystem()
    fs.import_mapping({"/src/main.cu": b"v0", "/src/CMakeLists.txt": b"x"})
    cache = BuildCache(lambda: 0.0)

    def build(version: int) -> None:
        fs.write_file("/src/main.cu", b"v%d" % version)
        trace = fs.start_tracking()
        fs.read_file("/src/main.cu")
        list(fs.walk("/src"))
        fs.exists("/build/Makefile")
        fs.stop_tracking()
        cache.capture("img", "/build", "make", trace, fs, "", "", 0, 1.0, 0)

    def observations(expect_hit: bool) -> int:
        before = cache.stats()["observations"]
        entry = cache.lookup("img", "/build", "make", fs)
        assert (entry is not None) == expect_hit
        return cache.stats()["observations"] - before

    counts = {}
    for size in (10, 500):
        for version in range(cache.entry_count, size):
            build(version)
        (shapes,) = cache._shapes.values()          # one primary ...
        assert cache.entry_count == size and list(shapes.values()) == [size]
        fs.write_file("/src/main.cu", b"v0")        # oldest entry: a hit
        hit = observations(expect_hit=True)
        fs.write_file("/src/main.cu", b"never built")
        miss = observations(expect_hit=False)
        counts[size] = (hit, miss)
    assert counts[10] == counts[500]
    assert all(0 < n <= 3 for n in counts[500])     # 3 paths in the shape
