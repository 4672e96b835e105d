"""The sharded control plane wired into a full RaiSystem deployment."""

import re

import pytest

from repro.core.cli import RaiCLI
from repro.core.config import SystemConfig
from repro.core.system import RaiSystem
from repro.shard import ShardMap

pytestmark = pytest.mark.shard

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}

# Probed against ShardMap(2, seed=0): three teams homed on partition 0,
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
        assert "submissions.p0" not in system.db.collection_names()
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

    def test_submissions_collection_is_sharded(self, sharded_system):
        coll = sharded_system.db.collection("submissions")
        assert coll.__class__.__name__ == "ShardedCollection"
        assert coll.shard_map == sharded_system.shards.shard_map

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(shards=0)
        with pytest.raises(ValueError):
            SystemConfig(shard_steal_threshold=0)
        with pytest.raises(ValueError):
            SystemConfig(shard_balance_interval_seconds=0.0)


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

    def test_submission_records_land_on_team_partition(self, sharded_system):
        system = sharded_system
        teams = [f"team{i:02d}" for i in range(6)]
        _storm(system, teams)
        coll = system.db.collection("submissions")
        smap = system.shards.shard_map
        for team in teams:
            doc = coll.find_one({"team": team})
            assert doc is not None
            physical = coll.shards[smap.partition(team)]
            assert physical.find_one({"team": team}) is not None

    def test_completions_feed_the_partition_estimator(self, sharded_system):
        system = sharded_system
        team = "team00"
        _storm(system, [team])
        scheduler = system.shards.scheduler_for(team)
        assert scheduler.estimator.expected(team) != \
            scheduler.estimator.default_seconds

    def test_stats_and_gauges(self, sharded_system):
        system = sharded_system
        _storm(system, [f"team{i:02d}" for i in range(6)])
        stats = system.stats()
        shard_stats = stats["shards"]
        assert shard_stats["shard_map"] == {"n_partitions": 4, "seed": 0}
        assert len(shard_stats["partitions"]) == 4
        assert sum(p["dispatched"] for p in shard_stats["partitions"]) >= 6
        assert all(p["queue_depth"] == 0
                   for p in shard_stats["partitions"])
        # The per-partition gauges are registered and live.
        for p in range(4):
            depth = system.metrics.gauge("shard_queue_depth",
                                         shard=f"p{p}")
            assert depth.value == 0.0


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

    def test_balancer_feeds_parked_cold_partition(self):
        # Partition 1's worker parks before any job reaches its queue;
        # pull-stealing can never wake it.  The balancer migrates queued
        # work from the deep partition and the parked get fires.
        system = RaiSystem.standard(num_workers=2, seed=7,
                                    config=SystemConfig(shards=2))
        system.start_shard_balancer(interval=10.0)
        results = _storm(system, P0_TEAMS, jobs_per_team=3)
        assert all(r.status.value == "succeeded" for r in results)
        plane = system.shards
        assert plane.rebalanced_in[1] > 0
        modes = {e.fields["mode"]
                 for e in system.events.query(type="shard.steal")}
        assert "rebalance" in modes

    def test_balancer_is_work_conserving_below_threshold(self):
        # Fewer executors than partitions: the one worker is homed on
        # partition 0, but the team routes to partition 3.  The single
        # queued job is below the steal threshold — the balancer must
        # migrate it anyway (an idle executor plus any queued message
        # violates work conservation), or the deployment deadlocks.
        system = RaiSystem.standard(num_workers=1, seed=7,
                                    config=SystemConfig(shards=4))
        assert system.shards.shard_map.partition("ece408-t1") != 0
        system.start_shard_balancer(interval=5.0)
        results = _storm(system, ["ece408-t1"])
        assert [r.status.value for r in results] == ["succeeded"]
        assert system.shards.rebalanced_in[0] > 0

    def test_balancer_at_one_partition_moves_nothing(self, system):
        # Two workers, five teams: jobs queue, but a lone partition has
        # no sibling to migrate from or to.
        system.start_shard_balancer(interval=5.0)
        results = _storm(system, [f"team{i:02d}" for i in range(5)],
                         jobs_per_team=2)
        assert all(r.status.value == "succeeded" for r in results)
        plane = system.shards
        assert plane.rebalance() == 0
        assert plane.rebalanced_in == [0]
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
        gauge = system.metrics.value("sched_wait_ewma")
        assert gauge > 0
        out = RaiCLI(system, clients[0]).run_command("rai top")
        printed, = re.findall(r"ewma=(\S+)s", out)
        assert printed == f"{gauge:.1f}"

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
