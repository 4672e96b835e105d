"""Usage attribution survives cross-shard work-stealing (PR 10 satellite).

A stolen job executes on a worker homed to a different partition than
the submitting team.  Metering attributes by the job document's team —
carried in the message body and the job object, not the executing
worker's partition — so the originating team is billed no matter where
the container actually ran.
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RaiSystem
from repro.obs.usage import UNATTRIBUTED

pytestmark = [pytest.mark.shard, pytest.mark.usage]

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}

# Probed against ShardMap(2): three teams homed on partition 0,
# one on partition 1 (same constants as test_shard_system).
P0_TEAMS = ["team00", "team01", "team03"]
P1_TEAM = "team02"


def _storm(system, teams, jobs_per_team=1):
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


class TestStolenJobAttribution:
    def test_stolen_jobs_bill_the_originating_team(self):
        # Same recipe as the work-stealing test: partition 1's worker
        # drains its single home job, then pull-steals from partition
        # 0's three-team backlog.
        system = RaiSystem.standard(num_workers=2, seed=7,
                                    config=SystemConfig(shards=2))
        results = _storm(system, [P1_TEAM] + P0_TEAMS, jobs_per_team=3)
        assert all(r.status.value == "succeeded" for r in results)
        assert system.shards.steals_in[1] > 0   # steals really happened

        meter = system.usage
        # Every team's compute landed on its own ledger line...
        for team in [P1_TEAM] + P0_TEAMS:
            assert meter.tenants[team]["container_seconds"] > 0
            assert meter.tenants[team]["slot_seconds"] > 0
        # ...and none of it leaked to the overhead bucket.
        assert "container_seconds" not in meter.tenants.get(UNATTRIBUTED, {})
        assert meter.tenant_count() == 4

    def test_stolen_job_exemplars_keep_team_and_trace(self):
        system = RaiSystem.standard(num_workers=2, seed=7,
                                    config=SystemConfig(shards=2))
        results = _storm(system, [P1_TEAM] + P0_TEAMS, jobs_per_team=3)
        by_job = {r.job_id: r for r in results}
        stolen = {e.fields["job_id"]
                  for e in system.events.query(type="shard.steal")}
        assert stolen
        metered = system.usage.jobs
        seen = stolen & set(metered)
        assert seen   # at least one stolen job kept an exemplar slot
        for job_id in seen:
            exemplar = metered[job_id]
            doc = system.db.collection("submissions").find_one(
                {"job_id": job_id})
            assert exemplar.tenant == doc["team"]
            assert exemplar.trace_id is not None
        # And the billed totals reconcile across partitions: summing
        # the per-team books equals the global container-second total.
        total = sum(system.usage.tenants[t]["container_seconds"]
                    for t in [P1_TEAM] + P0_TEAMS)
        assert total == pytest.approx(
            system.usage.totals["container_seconds"])
