"""Sharded deployments survive crash/restore with their map intact."""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RaiSystem
from repro.durability.snapshot import capture, write_snapshot
from repro.durability.wal import WriteAheadLog
from repro.errors import DurabilityError
from repro.shard import ShardMap

pytestmark = [pytest.mark.shard, pytest.mark.durability]

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def _storm(system, teams):
    def student(idx, team):
        client = system.new_client(team=team, username=f"{team}-user")
        client.stage_project(FILES)
        yield system.sim.timeout(0.5 * idx)
        result = yield from client.submit()
        results.append(result)

    results = []
    system.run_all([student(i, t) for i, t in enumerate(teams)])
    return results


class TestShardedRestore:
    def test_restore_rebuilds_the_same_shard_map(self, tmp_path):
        system = RaiSystem.standard(num_workers=2, seed=7,
                                    config=SystemConfig(shards=2))
        system.attach_durability(str(tmp_path / "dur"))
        system.crash_stop()
        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=2)
        assert restored.config.shards == 2
        assert restored.shards is not None
        assert restored.shards.shard_map == ShardMap(2)

    def test_restore_keeps_every_submission(self, tmp_path):
        teams = [f"team{i:02d}" for i in range(6)]
        system = RaiSystem.standard(num_workers=2, seed=7,
                                    config=SystemConfig(shards=2))
        system.attach_durability(str(tmp_path / "dur"))
        results = _storm(system, teams)
        assert all(r.status.value == "succeeded" for r in results)
        before = system.db.collection("submissions").find({}).to_list()
        assert len(before) == len(teams)
        system.crash_stop()

        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=2)
        coll = restored.db.collection("submissions")
        assert coll.find({}).to_list() == before
        assert restored.db.stats()["collections"]["submissions"] == \
            len(teams)

    def test_wal_records_carry_partition_names(self, tmp_path):
        system = RaiSystem.standard(num_workers=2, seed=7,
                                    config=SystemConfig(shards=2))
        system.attach_durability(str(tmp_path / "dur"))
        _storm(system, ["team00", "team02"])
        system.crash_stop()
        records, _ = WriteAheadLog(
            str(tmp_path / "dur" / "wal.log")).replay()
        routes = {r.get("route") for r in records if "route" in r}
        routes |= {r.get("topic") for r in records if "topic" in r}
        names = {r.get("c") for r in records if "c" in r}
        # Broker records name the partitioned route; docdb records name
        # the one submissions collection.
        assert any(route and route.startswith("tasks.p")
                   for route in routes)
        assert "submissions" in names
        assert not [n for n in names if n.startswith("submissions.")]

    def test_restored_system_keeps_serving(self, tmp_path):
        system = RaiSystem.standard(num_workers=2, seed=7,
                                    config=SystemConfig(shards=2))
        system.attach_durability(str(tmp_path / "dur"))
        _storm(system, ["team00", "team02"])
        system.crash_stop()
        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=2)
        results = _storm(restored, ["team01", "team04"])
        assert all(r.status.value == "succeeded" for r in results)
        assert sum(restored.shards.router.routed) == 2


class TestLegacyStealRecord:
    def test_legacy_mb_steal_replays_as_one_anomaly(self, tmp_path):
        # A WAL written by a build that ran the retired shard balancer can
        # hold an ``mb_steal`` migration.  Replay counts it as one anomaly
        # and leaves the message on the partition it was published to,
        # where a worker homed on the other partition steals it.
        system = RaiSystem.standard(num_workers=0, seed=3,
                                    config=SystemConfig(shards=2))
        system.attach_durability(str(tmp_path / "dur"))
        smap = system.shards.shard_map
        teams = [t for t in (f"team{i:02d}" for i in range(8))
                 if smap.partition(t) == 1]
        for team in teams:
            client = system.new_client(team=team, username=f"{team}-user")
            client.stage_project(FILES)
            system.sim.process(client.submit())
        system.run(until=5.0)
        victim = system.shards.channels[1]
        job_ids = sorted(m.body["job_id"] for m in victim.items)
        assert len(job_ids) == len(teams) >= 2
        system.durability.wal.append({
            "op": "mb_steal", "t": system.sim.now,
            "route": smap.route(1), "to": smap.route(0),
            "id": next(iter(victim.items)).id})
        system.crash_stop()

        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=1)
        assert restored.durability.replay_anomalies == 1
        assert [c.depth for c in restored.shards.channels] == \
            [0, len(teams)]
        assert [w.partition for w in restored.workers] == [0]
        restored.run(until=restored.sim.now + 600.0)
        submissions = restored.db.collection("submissions")
        assert sorted(d["job_id"] for d in submissions.find({})) == job_ids
        assert restored.shards.steals_in == [len(teams), 0]
        assert restored.queue_depth() == 0
        assert all(not c.in_flight for c in restored.shards.channels)


class TestPartitionedSubmissionsRefused:
    """A directory that split ``submissions`` into one collection per
    partition is refused: restored as is, ``submissions`` would be empty
    and the terminal-record fence would run every finished job again."""

    def _journaled(self, path):
        system = RaiSystem.standard(num_workers=2, seed=7,
                                    config=SystemConfig(shards=2))
        system.attach_durability(str(path))
        _storm(system, ["team00", "team02"])
        return system

    def test_snapshot_with_partition_collections(self, tmp_path):
        path = tmp_path / "dur"
        system = self._journaled(path)
        snap = capture(system)
        smap = system.shards.shard_map
        submissions = snap["db"].pop("submissions")
        for partition in smap.partitions():
            snap["db"][f"submissions.p{partition}"] = dict(
                submissions, docs=[d for d in submissions["docs"]
                                   if smap.partition(d["team"]) == partition])
        system.crash_stop()
        write_snapshot(system.durability.snapshot_path, snap)
        with pytest.raises(DurabilityError, match=r"'submissions\.p0'"):
            RaiSystem.restore(str(path), num_workers=0)

    def test_wal_record_naming_a_partition_collection(self, tmp_path):
        path = tmp_path / "dur"
        system = self._journaled(path)
        system.durability.wal.append({
            "op": "db_insert", "t": system.sim.now, "c": "submissions.p1",
            "doc": {"_id": "oid-99999999", "job_id": "job-999999"}})
        system.crash_stop()
        with pytest.raises(DurabilityError, match=r"'submissions\.p1'"):
            RaiSystem.restore(str(path), num_workers=0)
