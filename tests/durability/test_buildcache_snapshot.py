"""Build cache participation in snapshot/restore."""

import pytest

from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.durability.snapshot import capture, install

pytestmark = [pytest.mark.durability, pytest.mark.buildcache]

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\nint main(){}\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def _populate(system, team="t"):
    client = system.new_client(team=team)
    client.stage_project(FILES)
    result = system.run(client.submit())
    assert result.status is JobStatus.SUCCEEDED
    return client


class TestSnapshotCodec:
    def test_capture_install_round_trips_cache(self):
        system = RaiSystem.standard(num_workers=1, seed=71)
        _populate(system)
        before = system.build_cache.stats()
        assert before["entries"] == 2  # cmake + make
        snap = capture(system)

        target = RaiSystem(seed=71)
        install(target, snap)
        after = target.build_cache.stats()
        assert after["entries"] == before["entries"]
        assert after["blobs"] == before["blobs"]          # no duplicates
        assert after["blob_bytes"] == before["blob_bytes"]
        assert target.build_cache.verify() == []          # refcounts intact

    def test_pre_cache_snapshot_installs_cleanly(self):
        """A snapshot taken before the build cache existed (no key, or
        None from a disabled deployment) restores to an empty cache."""
        system = RaiSystem.standard(num_workers=1, seed=72)
        _populate(system)
        snap = capture(system)
        del snap["buildcache"]
        target = RaiSystem(seed=72)
        install(target, snap)
        assert len(target.build_cache._entries) == 0

        snap2 = capture(system)
        snap2["buildcache"] = None
        target2 = RaiSystem(seed=72)
        install(target2, snap2)
        assert len(target2.build_cache._entries) == 0


class TestFullRestore:
    def test_restore_round_trips_cache_and_replays(self, tmp_path):
        system = RaiSystem.standard(num_workers=1, seed=73)
        system.attach_durability(str(tmp_path))
        client = _populate(system)
        before = system.build_cache.stats()
        system.checkpoint()
        system.crash_stop()

        restored = RaiSystem.restore(str(tmp_path), num_workers=1)
        cache = restored.build_cache
        assert cache.stats()["entries"] == before["entries"]
        assert cache.stats()["blobs"] == before["blobs"]
        assert cache.verify() == []
        # A resubmission of the same project on the revived deployment
        # replays from the restored cache.
        revived = restored.new_client(team="t")
        revived.stage_project(FILES)
        gap = restored.config.rate_limit_seconds + 1.0

        def resubmit():
            yield restored.sim.timeout(gap)
            result = yield from revived.submit()
            return result

        r2 = restored.run(resubmit())
        assert r2.status is JobStatus.SUCCEEDED
        trace = restored.tracer.store.trace_for_job(r2.job_id)
        hits = {span.attributes["command"] for span in trace.spans
                if span.attributes.get("cache") == "hit"}
        assert hits == {"cmake /src", "make"}
        assert cache.verify() == []

    def test_restore_rebuilds_upload_bases_for_delta_ingest(self, tmp_path):
        """Base negotiation survives restore: a fresh client on the
        revived deployment still gets delta uploads."""
        system = RaiSystem.standard(num_workers=1, seed=74)
        system.attach_durability(str(tmp_path))
        client = system.new_client(username="erin")
        client.stage_project(FILES)
        assert system.run(client.submit()).status is JobStatus.SUCCEEDED
        system.checkpoint()
        system.crash_stop()

        restored = RaiSystem.restore(str(tmp_path), num_workers=1)
        base = restored.storage.negotiate_base(
            restored.config.upload_bucket, "erin")
        assert base is not None
        fresh = restored.new_client(username="erin")
        fresh.stage_project(FILES)
        gap = restored.config.rate_limit_seconds + 1.0

        def resubmit():
            yield restored.sim.timeout(gap)
            result = yield from fresh.submit()
            return result

        r2 = restored.run(resubmit())
        assert r2.upload_bytes < r2.upload_bytes_full / 2
