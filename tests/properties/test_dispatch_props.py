"""Work conservation across partitions, over generated fleets and storms.

Every deployment runs the partitioned control plane.  Whatever the
partition count, fleet size and arrival pattern, a job must never wait on
a queue while an executor sits parked: a put that leaves a message queued
wakes a parked executor on a sibling partition, which steals it.  A fleet
smaller than its partition count therefore still finishes every job.

The monitor samples every 0.05 sim-s.  A sample that sees a queued plane
message while a plane get is parked re-checks once after every event
already due at that instant (a ``timeout(0)``), so it judges the
quiescent state, not the gap between a put and the woken executor's
resume in the same instant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.system import RaiSystem

pytestmark = pytest.mark.shard

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}
TICK = 0.05


def _parked_while_queued(plane) -> bool:
    queued = any(channel.items for channel in plane.channels)
    return queued and any(not get.triggered for channel in plane.channels
                          for get in channel._gets)


@settings(max_examples=30, deadline=None)
@given(shards=st.integers(1, 4), workers=st.integers(1, 5),
       gaps=st.lists(st.integers(0, 40), min_size=1, max_size=7),
       jobs=st.integers(1, 2), seed=st.integers(0, 3))
def test_every_job_runs_and_no_executor_idles_beside_queued_work(
        shards, workers, gaps, jobs, seed):
    system = RaiSystem.standard(num_workers=workers, seed=seed,
                                config=SystemConfig(shards=shards))
    plane = system.shards
    resubmit_gap = system.config.rate_limit_seconds + 5.0
    total = len(gaps) * jobs
    results = []
    violations = []

    def student(index, start):
        client = system.new_client(team=f"team{index:02d}")
        client.stage_project(FILES)
        yield system.sim.timeout(start)
        for k in range(jobs):
            if k:
                yield system.sim.timeout(resubmit_gap)
            results.append((yield from client.submit()))

    def monitor():
        while len(results) < total and not violations:
            yield system.sim.timeout(TICK)
            if _parked_while_queued(plane):
                yield system.sim.timeout(0)
                if _parked_while_queued(plane):
                    violations.append(system.sim.now)

    starts = [0.25 * sum(gaps[:i + 1]) for i in range(len(gaps))]
    system.sim.process(monitor())
    system.run_all([student(i, t) for i, t in enumerate(starts)])

    assert violations == []
    assert len(results) == total
    assert len({r.job_id for r in results}) == total
    assert all(r.succeeded for r in results)
    assert sum(plane.steals_in) == sum(plane.steals_out)
    assert system.queue_depth() == 0
    for channel in plane.channels:
        assert not channel.in_flight
        assert not channel.dead_letters and channel.total_dead_lettered == 0
