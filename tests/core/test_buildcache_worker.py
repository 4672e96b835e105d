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


def _cache_events(system, kind):
    return system.events.query(type=f"buildcache.{kind}")


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
        system.run(client.submit())
        commands = {e.fields.get("command")
                    for kind in ("hit", "miss")
                    for e in _cache_events(system, kind)}
        assert commands <= {"cmake /src", "make"}


class TestReplay:
    def test_identical_resubmission_replays_from_cache(self):
        system = RaiSystem.standard(num_workers=1, seed=41)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        r1, r2 = _course(system, client, [None, None])
        assert r1.status is JobStatus.SUCCEEDED
        assert r2.status is JobStatus.SUCCEEDED
        hits = _cache_events(system, "hit")
        assert {e.fields["job_id"] for e in hits} == {r2.job_id}
        assert {e.fields["command"] for e in hits} == {"cmake /src", "make"}
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
        _, r2 = _course(system, client, [
            None, {"zz_tuning.cfg": "#define BLOCK_DIM 16\n"}])
        hits = _cache_events(system, "hit")
        assert {e.fields["job_id"] for e in hits} == {r2.job_id}

    def test_source_edit_invalidates_make_not_cmake(self):
        system = RaiSystem.standard(num_workers=1, seed=43)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        _, r2 = _course(system, client, [
            None,
            {"main.cu": "// @rai-sim quality=0.9 impl=analytic\n"
                        "int main(){return 0;}\n"}])
        second = {e.fields["command"]: kind
                  for kind in ("hit", "miss")
                  for e in _cache_events(system, kind)
                  if e.fields.get("job_id") == r2.job_id}
        assert second["cmake /src"] == "hit"    # cmake never read main.cu
        assert second["make"] == "miss"

    def test_new_source_file_invalidates_make(self):
        system = RaiSystem.standard(num_workers=1, seed=44)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        _, r2 = _course(system, client, [
            None, {"extra.cu": "// more kernels\n"}])
        second_misses = {e.fields["command"]
                         for e in _cache_events(system, "miss")
                         if e.fields.get("job_id") == r2.job_id}
        assert "make" in second_misses

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
        hits = _cache_events(system, "hit")
        assert {e.fields["job_id"] for e in hits} == {r2.job_id}

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
        assert not _cache_events(system, "hit")
        assert not _cache_events(system, "miss")

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
        assert not _cache_events(system, "miss")

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
        hits = _cache_events(system, "hit")
        assert {e.fields["job_id"] for e in hits} == {rb.job_id}
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
    """A delivery fetches every cacheable command's candidates in one
    round trip: its first hit pays the probe, every hit its artifact
    bytes over storage bandwidth, and misses and uncacheable commands
    pay nothing for the cache."""

    @settings(max_examples=30)
    @given(commands=st.lists(st.sampled_from(
               ["cmake /src/a", "cmake /src/b", "cmake /src/c", "echo ok"]),
               min_size=1, max_size=6),
           edited=st.sets(st.sampled_from("abc")))
    def test_one_probe_per_delivery_plus_artifact_bytes(self, commands,
                                                        edited):
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
        client.stage_project(first)
        results = _course(system, client, [None, second])
        bandwidth = system.workers[0].config.storage_bandwidth_bps

        # A cmake hits when an earlier run of it read the same lists file.
        seen = set()
        for result, files in zip(results, (first, second)):
            assert result.status is JobStatus.SUCCEEDED
            expected_hits = []
            for command in commands:
                if command_cacheable(command):
                    directory = command.rsplit("/", 1)[1]
                    key = (command, files[directory + "/CMakeLists.txt"])
                    if key in seen:
                        expected_hits.append(command)
                    seen.add(key)
            trace = system.tracer.store.trace_for_job(result.job_id)
            hits = [span for span in trace.spans
                    if span.name == "container.exec"
                    and span.attributes.get("cache") == "hit"]
            assert [span.attributes["command"] for span in hits] \
                == expected_hits
            replays = [fields for span in hits
                       for _, name, fields in span.events
                       if name == "buildcache.replay"]
            assert [r["probe_seconds"] for r in replays] == [
                0.0 if i else BUILDCACHE_PROBE_SECONDS
                for i in range(len(replays))]
            replay_seconds = sum(s.end_time - s.start_time for s in hits)
            assert replay_seconds == pytest.approx(
                (BUILDCACHE_PROBE_SECONDS if hits else 0.0)
                + sum(r["artifact_bytes"] for r in replays) / bandwidth)
