"""Chaos: a worker crash mid-build never publishes a partial artifact.

Capture is atomic on the simulation timeline — it runs after the
command's timeout completes, with no yield inside, so an interrupt
(worker crash) can only land *before* capture.  These tests drive a
crash into the middle of the build phase and assert the cache holds
either nothing or only complete, verifiable entries, and that the
redelivered job repopulates it exactly once.
"""

import pytest

from repro.core.config import WorkerConfig
from repro.core.job import JobStatus
from tests.golden import deployment

pytestmark = [pytest.mark.chaos, pytest.mark.buildcache]

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\nint main(){}\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


class TestCrashMidBuild:
    def _crash_at(self, crash_time, seed):
        system = deployment(
            num_workers=1, seed=seed,
            worker_config=WorkerConfig(max_concurrent_jobs=1))
        system.start_caretaker(interval=30.0, in_flight_timeout=120.0)
        victim = system.workers[0]
        client = system.new_client(team="t")
        client.stage_project(FILES)
        job_proc = system.sim.process(client.submit())

        def chaos(sim):
            yield sim.timeout(crash_time)
            if victim.active_jobs:
                victim.crash()

        system.run(system.sim.process(chaos(system.sim)))
        return system, victim, client, job_proc

    @pytest.mark.parametrize("crash_time", [3.0, 5.0, 7.0, 9.0])
    def test_no_partial_artifact_at_any_crash_point(self, crash_time):
        system, victim, _client, _proc = self._crash_at(
            crash_time, seed=int(crash_time * 10))
        cache = system.build_cache
        # Whatever completed before the crash is whole; nothing torn.
        assert cache.verify() == []
        for entry in cache._entries.values():
            # Every recorded output blob is present and sized.
            for digest in entry.blob_digests():
                assert digest in cache._blobs

    def test_redelivered_job_completes_and_caches_once(self):
        system, victim, client, job_proc = self._crash_at(6.0, seed=61)
        cache = system.build_cache
        system.add_worker()
        result = system.run(job_proc)
        assert result.status is JobStatus.SUCCEEDED
        assert result.worker_id != victim.id
        assert cache.verify() == []
        # The full command list is now cached, one entry per command.
        commands = sorted(e.command for e in cache._entries.values())
        assert commands == ["cmake /src", "make"]
        # And a resubmission replays from it.
        gap = system.config.rate_limit_seconds + 1.0

        def resubmit():
            yield system.sim.timeout(gap)
            result = yield from client.submit()
            return result

        r2 = system.run(resubmit())
        assert r2.status is JobStatus.SUCCEEDED
        hits = {e.fields["command"]
                for e in system.events.query(type="buildcache.hit")
                if e.fields.get("job_id") == r2.job_id}
        assert hits == {"cmake /src", "make"}
