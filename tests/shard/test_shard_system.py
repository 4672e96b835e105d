"""The sharded control plane wired into a full RaiSystem deployment."""

import re

import pytest

import repro.core.pipeline as pipeline
from repro.core.cli import RaiCLI
from repro.core.config import SystemConfig
from repro.core.system import RaiSystem
from repro.sched.estimator import DEFAULT_SECONDS
from repro.shard import ShardMap

pytestmark = pytest.mark.shard

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}

# Probed against ShardMap(2): three teams homed on partition 0,
# one on partition 1 (see test_shardmap stability — placement is stable).
P0_TEAMS = ["team00", "team01", "team03"]
P1_TEAM = "team02"


def _storm(system, teams, jobs_per_team=1):
    """Submit ``jobs_per_team`` from each team, rate-limit safe."""
    gap = system.config.rate_limit_seconds + 5.0

    def student(idx, team):
        client = system.new_client(team=team, username=f"{team}-user")
        client.stage_project(FILES)
        yield system.sim.timeout(0.5 * idx)
        for k in range(jobs_per_team):
            if k:
                yield system.sim.timeout(gap)
            result = yield from client.submit()
            results.append(result)

    results = []
    system.run_all([student(i, t) for i, t in enumerate(teams)])
    return results


@pytest.fixture
def sharded_system():
    return RaiSystem.standard(num_workers=4, seed=7,
                              config=SystemConfig(shards=4))


class TestWiring:
    def test_one_shard_is_a_one_partition_plane(self, system):
        plane = system.shards
        assert plane.shard_map == ShardMap(1)
        # The lone partition keeps the paper's unsharded names.
        assert plane.shard_map.topic(0) == "rai"
        assert plane.shard_map.route(0) == "rai/tasks"
        assert [c.route for c in plane.channels] == ["rai/tasks"]
        assert plane.route("anyteam") == (0, "rai")
        coll = system.db.collection("submissions")
        assert coll.__class__.__name__ == "Collection"
        assert coll.name == "submissions"
        assert "submissions.p0" not in system.db._collections
        scheduler, = plane.schedulers
        assert scheduler is not None
        assert plane.channels[0].scheduler is scheduler
        assert system.scheduler is None
        assert [w.partition for w in system.workers] == [0, 0]

    def test_sharded_system_builds_the_plane(self, sharded_system):
        plane = sharded_system.shards
        assert plane.shard_map == ShardMap(4)
        # One independent scheduler per partition; no global scheduler.
        assert sharded_system.scheduler is None
        assert len([s for s in plane.schedulers if s is not None]) == 4
        assert len({id(s) for s in plane.schedulers}) == 4

    def test_workers_homed_round_robin(self, sharded_system):
        assert [w.partition for w in sharded_system.workers] == [0, 1, 2, 3]
        sharded_system.run(until=1.0)
        # Each worker's one slot subscribes to its home partition only.
        assert [c.subscriber_count
                for c in sharded_system.shards.channels] == [1, 1, 1, 1]

    def test_task_topic_routes_by_team_key(self, sharded_system):
        smap = sharded_system.shards.shard_map
        for team in ("alpha", "beta", "gamma"):
            partition = smap.partition(team)
            assert sharded_system.shards.route(team) == \
                (partition, smap.topic(partition))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(shards=0)


class TestShardedSubmissions:
    def test_storm_completes_and_routes(self, sharded_system):
        system = sharded_system
        teams = [f"team{i:02d}" for i in range(8)]
        results = _storm(system, teams)
        assert len(results) == 8
        assert all(r.status.value == "succeeded" for r in results)
        assert system.queue_depth() == 0
        # Router counted every published task.
        assert sum(system.shards.router.routed) == 8

    def test_shard_route_events_match_the_map(self, sharded_system):
        system = sharded_system
        teams = [f"team{i:02d}" for i in range(6)]
        _storm(system, teams)
        smap = system.shards.shard_map
        routed = system.events.query(type="shard.route")
        assert len(routed) == 6
        for event in routed:
            team = event.fields["team"]
            assert event.fields["partition"] == smap.partition(team)
            assert event.fields["topic"] == smap.topic(
                smap.partition(team))

    def test_submissions_is_one_collection(self, sharded_system):
        """Partitions split the task topics and schedulers, not the
        ``submissions`` collection."""
        system = sharded_system
        teams = [f"team{i:02d}" for i in range(6)]
        _storm(system, teams)
        names = system.db.stats()["collections"]
        assert names["submissions"] == len(teams)
        assert not [n for n in names if n.startswith("submissions.")]

    def test_every_team_record_is_in_submissions(self, sharded_system):
        """Teams homed on different partitions all record into the one
        ``submissions`` collection."""
        system = sharded_system
        teams = [f"team{i:02d}" for i in range(6)]
        _storm(system, teams)
        assert len({system.shards.shard_map.partition(t)
                    for t in teams}) > 1
        coll = system.db.collection("submissions")
        for team in teams:
            assert coll.find_one({"team": team}) is not None
        assert sorted(d["team"] for d in coll.find({})) == teams

    def test_duplicate_probe_is_an_index_hit(self, sharded_system,
                                             monkeypatch):
        """The effectively-once probe reads the ``job_id`` index, never a
        scan; a redelivered job's second record is still suppressed."""
        system = sharded_system
        coll = system.db.collection("submissions")
        probes = []
        plan = coll._candidates

        def planned(filter):
            before = dict(coll.planner_stats)
            ids = plan(filter)
            if "job_id" in filter:
                probes.append(tuple(
                    coll.planner_stats[key] - before[key]
                    for key in ("index_hits", "scans", "docs_examined")))
            return ids
        monkeypatch.setattr(coll, "_candidates", planned)
        record = pipeline.record_submission

        def recorded_twice(run):
            record(run)
            record(run)     # what a redelivery of the same job writes
        monkeypatch.setattr(pipeline, "record_submission", recorded_twice)

        results = _storm(system, ["team00", "team02", "team03"])
        # Each job: its probe before recording, then the redelivery's
        # probe finding that record.
        assert sorted(probes) == [(1, 0, 0)] * 3 + [(1, 0, 1)] * 3
        assert coll.planner_stats["scans"] == 0
        for result in results:
            assert coll.find({"job_id": result.job_id}).count() == 1
        assert system.monitor.counters.get("duplicate_records_suppressed") == 3

    def test_completions_feed_the_partition_estimator(self, sharded_system):
        system = sharded_system
        team = "team00"
        _storm(system, [team])
        scheduler = system.shards.scheduler_for(team)
        assert scheduler.estimator.expected(team) != \
            DEFAULT_SECONDS

    def test_stats_and_gauges(self, sharded_system):
        system = sharded_system
        _storm(system, [f"team{i:02d}" for i in range(6)])
        stats = system.stats()
        shard_stats = stats["shards"]
        assert shard_stats["shard_map"] == {"n_partitions": 4}
        assert len(shard_stats["partitions"]) == 4
        assert sum(p["dispatched"] for p in shard_stats["partitions"]) >= 6
        assert all(p["queue_depth"] == 0
                   for p in system.shards.stats()["partitions"])


class TestWorkStealing:
    def test_idle_partition_steals_from_deep_sibling(self):
        # Two partitions, one worker each.  The thief's home partition
        # gets exactly one job (so its executor is cycling, not parked);
        # three teams then storm the victim partition.  Once home is
        # dry the thief must claim from the victim's backlog.
        system = RaiSystem.standard(num_workers=2, seed=7,
                                    config=SystemConfig(shards=2))
        results = _storm(system, [P1_TEAM] + P0_TEAMS, jobs_per_team=3)
        assert all(r.status.value == "succeeded" for r in results)
        plane = system.shards
        assert plane.steals_in[1] > 0
        assert plane.steals_out[0] > 0
        steal_events = system.events.query(type="shard.steal")
        assert steal_events
        assert all(e.fields["mode"] == "pull" for e in steal_events)

    def test_put_wakes_parked_cold_partition(self):
        # Partition 1's worker parks before any job reaches its queue, so
        # it never cycles through try_get.  A put on partition 0 that no
        # executor there is parked for wakes it, and it steals.
        system = RaiSystem.standard(num_workers=2, seed=7,
                                    config=SystemConfig(shards=2))
        results = _storm(system, P0_TEAMS, jobs_per_team=3)
        assert all(r.status.value == "succeeded" for r in results)
        plane = system.shards
        assert plane.router.routed == [9, 0]
        assert plane.steals_in[1] > 0
        assert plane.steals_in[1] == plane.steals_out[0]
        steal_events = system.events.query(type="shard.steal")
        assert len(steal_events) == plane.steals_in[1]
        assert all(e.fields["mode"] == "pull" for e in steal_events)

    def test_lone_job_on_unmanned_partition_runs(self):
        # Fewer executors than partitions: the one worker is homed on
        # partition 0, but the team routes to partition 3.  The single
        # queued job wakes the parked executor, which steals it.
        system = RaiSystem.standard(num_workers=1, seed=7,
                                    config=SystemConfig(shards=4))
        assert system.shards.shard_map.partition("ece408-t1") == 3
        results = _storm(system, ["ece408-t1"])
        assert [r.status.value for r in results] == ["succeeded"]
        plane = system.shards
        assert plane.steals_in == [1, 0, 0, 0]
        assert plane.steals_out == [0, 0, 0, 1]
        event, = system.events.query(type="shard.steal")
        assert event.fields["mode"] == "pull"

    def test_stranded_job_regression(self):
        # The reproduction that used to end in "ran out of events":
        # partition 2 holds two jobs and no worker is homed on it.
        system = RaiSystem.standard(num_workers=2, seed=7,
                                    config=SystemConfig(shards=4))
        results = _storm(system, [f"team{i:02d}" for i in range(6)])
        plane = system.shards
        assert plane.router.routed == [2, 2, 2, 0]
        assert [w.partition for w in system.workers] == [0, 1]
        assert len(results) == 6
        assert all(r.status.value == "succeeded" for r in results)
        assert plane.steals_out[2] == 2
        assert system.queue_depth() == 0

    def test_one_partition_neither_steals_nor_wakes(self, system):
        # Two workers, five teams: jobs queue behind busy executors, but a
        # lone partition has no sibling to wake or steal from.
        channel, = system.shards.channels
        wake = channel.on_queued
        woke = []

        def spy(ch):
            parked = sum(not g.triggered for g in ch._gets)
            wake(ch)
            woke.append(parked - sum(not g.triggered for g in ch._gets))

        channel.on_queued = spy
        results = _storm(system, [f"team{i:02d}" for i in range(5)],
                         jobs_per_team=2)
        assert all(r.status.value == "succeeded" for r in results)
        assert woke and not any(woke)   # jobs queued; no get resolved
        plane = system.shards
        assert plane.steals_in == plane.steals_out == [0]
        assert system.events.query(type="shard.steal") == []


class TestShardsCli:
    @staticmethod
    def _rows(out):
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines)
                     if line.startswith("-"))
        return [line for line in lines[start + 1:] if line.strip()]

    def test_one_partition_table(self, system):
        _storm(system, [f"team{i:02d}" for i in range(3)])
        client = system.new_client(team="cli-team")
        client.stage_project(FILES)
        out = RaiCLI(system, client).run_command("rai shards")
        assert "shard map: 1 partition," in out
        row, = self._rows(out)
        cells = [cell.strip() for cell in row.split("|")]
        assert cells[:2] == ["rai", "3"]        # topic, routed
        assert cells[6] == "2"                  # both workers homed here

    @pytest.mark.parametrize("shards", [1, 4])
    def test_top_prints_the_wait_gauge(self, shards):
        system = RaiSystem.standard(num_workers=4, seed=7,
                                    config=SystemConfig(shards=shards))
        clients = [system.new_client(team=f"team{i:02d}")
                   for i in range(12)]
        for client in clients:
            client.stage_project(FILES)
        results = system.run_all(client.submit() for client in clients)
        assert all(r.succeeded for r in results)
        ewma = system.shards.max_wait_ewma()
        assert ewma > 0
        out = RaiCLI(system, clients[0]).run_command("rai top")
        printed, = re.findall(r"ewma=(\S+)s", out)
        assert printed == f"{ewma:.1f}"

    def test_sharded_table(self, sharded_system):
        system = sharded_system
        _storm(system, [f"team{i:02d}" for i in range(6)])
        client = system.new_client(team="cli-team")
        client.stage_project(FILES)
        out = RaiCLI(system, client).run_command("rai shards")
        assert "4 partitions" in out
        for p in range(4):
            assert f"p{p}" in out or str(p) in out
        assert "steal" in out

    def test_shards_listed_in_help(self, system):
        client = system.new_client(team="cli-team")
        client.stage_project(FILES)
        out = RaiCLI(system, client).run_command("rai help")
        assert "shards" in out
