"""Worker-level build cache integration: capture, replay, invalidation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buildspec import CACHEABLE_PROGRAMS, command_cacheable
from repro.core.job import JobStatus
from repro.core.pipeline import BUILDCACHE_PROBE_SECONDS
from repro.core.system import RaiSystem

pytestmark = pytest.mark.buildcache

FILES = {
    "main.cu": "// @rai-sim quality=0.85 impl=analytic\nint main(){}\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
    "zz_tuning.cfg": "#define BLOCK_DIM 8\n",
}


def _course(system, client, stagings):
    """Submit once per staging dict (None = no restage), rate-limit gapped."""
    gap = system.config.rate_limit_seconds + 1.0
    results = []

    def driver():
        for i, staging in enumerate(stagings):
            if i:
                yield system.sim.timeout(gap)
            if staging:
                client.stage_project(staging)
            result = yield from client.submit()
            results.append(result)

    system.run(driver())
    return results


def _cache(system, *results):
    """``{job_id: {command: "hit" | "miss"}}``: how the build cache
    answered each job's cacheable commands, read off its trace's
    ``container.exec`` spans."""
    out = {}
    for result in results:
        trace = system.tracer.store.trace_for_job(result.job_id)
        out[result.job_id] = {
            span.attributes["command"]: span.attributes["cache"]
            for span in trace.spans
            if span.name == "container.exec" and "cache" in span.attributes}
    return out


BOTH = ("cmake /src", "make")
MISSED = dict.fromkeys(BOTH, "miss")
HIT = dict.fromkeys(BOTH, "hit")


def _build_lines(result):
    """The cmake/make output lines — the part replay must reproduce.

    Run-command output legitimately differs *between jobs* (per-job
    timing noise prints in the measurement line); cache-on vs cache-off
    equivalence of whole courses is asserted by the grading digest.
    """
    return [line for line in result.stdout_text().splitlines()
            if line.startswith(("--", "[nvcc]", "[100%]"))]


class TestCacheability:
    def test_only_build_tools_are_cacheable(self):
        assert CACHEABLE_PROGRAMS == frozenset({"cmake", "make"})
        assert command_cacheable("cmake /src")
        assert command_cacheable("make")
        assert not command_cacheable("./ece408 /data/test10.hdf5")
        assert not command_cacheable("echo hi")
        assert not command_cacheable("make && ./ece408")  # chained run
        assert command_cacheable("cmake /src && make")
        assert not command_cacheable("")

    def test_run_commands_never_cached(self, system, client):
        result = system.run(client.submit())
        assert set(_cache(system, result)[result.job_id]) <= set(BOTH)


class TestReplay:
    def test_identical_resubmission_replays_from_cache(self):
        system = RaiSystem.standard(num_workers=1, seed=41)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        r1, r2 = _course(system, client, [None, None])
        assert r1.status is JobStatus.SUCCEEDED
        assert r2.status is JobStatus.SUCCEEDED
        assert _cache(system, r1, r2) == {r1.job_id: MISSED, r2.job_id: HIT}
        # Replayed build output is byte-identical to the recorded run.
        assert _build_lines(r1) == _build_lines(r2)
        assert r1.stderr_text() == r2.stderr_text()
        # And dramatically cheaper than executing.
        d1 = r1.finished_at - r1.queued_at
        d2 = r2.finished_at - r2.queued_at
        assert d2 < d1 / 2

    def test_unread_tuning_edit_still_hits(self):
        system = RaiSystem.standard(num_workers=1, seed=42)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        r1, r2 = _course(system, client, [
            None, {"zz_tuning.cfg": "#define BLOCK_DIM 16\n"}])
        assert _cache(system, r1, r2) == {r1.job_id: MISSED, r2.job_id: HIT}

    def test_source_edit_invalidates_make_not_cmake(self):
        system = RaiSystem.standard(num_workers=1, seed=43)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        _, r2 = _course(system, client, [
            None,
            {"main.cu": "// @rai-sim quality=0.9 impl=analytic\n"
                        "int main(){return 0;}\n"}])
        second = _cache(system, r2)[r2.job_id]
        assert second["cmake /src"] == "hit"    # cmake never read main.cu
        assert second["make"] == "miss"

    def test_new_source_file_invalidates_make(self):
        system = RaiSystem.standard(num_workers=1, seed=44)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        _, r2 = _course(system, client, [
            None, {"extra.cu": "// more kernels\n"}])
        assert _cache(system, r2)[r2.job_id]["make"] == "miss"

    def test_compile_error_replays_identically(self):
        system = RaiSystem.standard(num_workers=1, seed=45)
        client = system.new_client(team="t")
        client.stage_project(dict(FILES, **{
            "main.cu": "// broken\nCOMPILE_ERROR\n"}))
        r1, r2 = _course(system, client, [None, None])
        assert r1.status is JobStatus.FAILED
        assert r2.status is JobStatus.FAILED
        assert r1.exit_code == r2.exit_code == 2
        assert r1.stderr_text() == r2.stderr_text()
        assert _cache(system, r1, r2) == {r1.job_id: MISSED, r2.job_id: HIT}

    def test_cache_disabled_in_build_file_skips_lookup(self):
        system = RaiSystem.standard(num_workers=1, seed=46)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        client.set_build_file("""\
rai:
  version: 0.1
  image: webgpu/rai:root
  cache: false
commands:
  build:
    - cmake /src
    - make
""")
        r1, r2 = _course(system, client, [None, None])
        assert r1.status is JobStatus.SUCCEEDED
        assert r2.status is JobStatus.SUCCEEDED
        assert _cache(system, r1, r2) == {r1.job_id: {}, r2.job_id: {}}
        assert system.build_cache.hit_count == \
            system.build_cache.miss_count == 0

    def test_cache_disabled_in_config(self):
        from repro.core.config import SystemConfig

        config = SystemConfig()
        config.buildcache_enabled = False
        system = RaiSystem.standard(num_workers=1, seed=47, config=config)
        assert system.build_cache is None
        client = system.new_client(team="t")
        client.stage_project(FILES)
        r1, r2 = _course(system, client, [None, None])
        assert r1.status is JobStatus.SUCCEEDED
        assert r2.status is JobStatus.SUCCEEDED
        assert _cache(system, r1, r2) == {r1.job_id: {}, r2.job_id: {}}

    def test_cross_user_sharing(self):
        """Two students with identical projects share cached builds —
        the cache is content-keyed, not owner-keyed."""
        system = RaiSystem.standard(num_workers=1, seed=48)
        a = system.new_client(team="team-a")
        b = system.new_client(team="team-b")
        a.stage_project(FILES)
        b.stage_project(FILES)
        ra = system.run(a.submit())
        rb = system.run(b.submit())
        assert _cache(system, ra, rb) == {ra.job_id: MISSED, rb.job_id: HIT}
        assert _build_lines(ra) == _build_lines(rb)

    def test_downstream_run_unaffected_by_replay(self):
        """The run/grading command executes for real after a replayed
        build and produces the same measurement stream."""
        system = RaiSystem.standard(num_workers=1, seed=49)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        r1, r2 = _course(system, client, [None, None])
        assert r1.correctness == r2.correctness == 1.0
        assert r1.internal_time is not None
        assert r2.internal_time is not None


class TestProbeCharge:
    """A delivery asks the shared cache at most once: at its first
    cacheable command its worker's index cannot answer — a miss, or a hit
    on a key the worker neither captured nor fetched — and that probe
    refreshes the index for every cacheable command of the job.  Every
    hit pays its artifact bytes over storage bandwidth; a hit on an
    indexed key pays nothing else."""

    @settings(max_examples=30)
    @given(commands=st.lists(st.sampled_from(
               ["cmake /src/a", "cmake /src/b", "cmake /src/c", "echo ok"]),
               min_size=1, max_size=6),
           edited=st.sets(st.sampled_from("abc")),
           replaced=st.booleans())
    def test_one_probe_per_delivery_plus_artifact_bytes(
            self, commands, edited, replaced):
        system = RaiSystem.standard(num_workers=1, seed=50)
        client = system.new_client(team="t")
        client.set_build_file(
            "rai:\n  version: 0.1\n  image: webgpu/rai:root\n"
            "commands:\n  build:\n"
            + "".join(f"    - {command}\n" for command in commands))
        first = {f"{d}/CMakeLists.txt": f"add_executable({d} main.cu)\n"
                 for d in "abc"}
        second = dict(first, **{f"{d}/CMakeLists.txt":
                                f"add_executable({d}2 main.cu)\n"
                                for d in edited})
        results = []

        def driver():
            client.stage_project(first)
            results.append((yield from client.submit()))
            if replaced:        # the resubmission lands on a fresh worker
                system.remove_worker(system.workers[0])
                system.add_worker()
            yield system.sim.timeout(system.config.rate_limit_seconds + 1)
            client.stage_project(second)
            results.append((yield from client.submit()))

        system.run(driver())
        bandwidth = system.workers[-1].config.storage_bandwidth_bps
        cacheable = [c for c in commands if command_cacheable(c)]

        # A cmake's answer is its (command, lists file) pair: a hit when an
        # earlier run captured it, indexed when the worker holds it.
        cached, index = set(), set()
        for result, files in zip(results, (first, second)):
            assert result.status is JobStatus.SUCCEEDED
            if replaced and files is second:
                index = set()
            answers = [(c, files[c.rsplit("/", 1)[1] + "/CMakeLists.txt"])
                       for c in cacheable]
            expected, probed = [], False
            for answer in answers:
                hit = answer in cached
                indexed = hit and answer in index
                probe = not (indexed or probed)
                if probe:
                    probed = True
                    index |= {a for a in cached if a[0] in cacheable}
                if not hit:
                    cached.add(answer)
                    index.add(answer)
                expected.append(("hit" if hit else "miss", probe,
                                 indexed if hit else None))
            trace = system.tracer.store.trace_for_job(result.job_id)
            spans = [span for span in trace.spans
                     if span.name == "container.exec"
                     and "cache" in span.attributes]
            seen = []
            for span in spans:
                events = {name: fields for _, name, fields in span.events}
                replay = events.get("buildcache.replay")
                seen.append((span.attributes["cache"],
                             "buildcache.probe" in events,
                             None if replay is None else replay["indexed"]))
                if replay is not None:
                    assert span.end_time - span.start_time == \
                        pytest.approx(replay["artifact_bytes"] / bandwidth
                                      + BUILDCACHE_PROBE_SECONDS
                                      * ("buildcache.probe" in events))
            assert seen == expected
            probes = [fields for span in spans
                      for _, name, fields in span.events
                      if name == "buildcache.probe"]
            assert probes == [{"seconds": BUILDCACHE_PROBE_SECONDS,
                               "primaries": len(set(cacheable))}
                              ] * any(probe for _, probe, _ in expected)
