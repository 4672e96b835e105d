"""Regression pin: a stale sweep must not run a live job again.

A caretaker whose in-flight timeout is shorter than a job requeues the
delivery still running, and a second executor runs the same job: one
Listing 1 job is delivered three times today.  Fencing (one live
delivery per job: delivery tags and leases) turns this strict xfail
into a pass; until then it pins the count from getting worse.
"""

import pytest

from repro.core.job import JobStatus
from repro.core.system import RaiSystem

pytestmark = pytest.mark.chaos

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


@pytest.mark.xfail(strict=True, reason="no fencing yet: a stale sweep "
                   "requeues a running delivery, so the job runs again")
def test_one_job_is_delivered_once_under_a_short_stale_sweep():
    system = RaiSystem.standard(num_workers=2, seed=7)
    system.start_caretaker(2.0, in_flight_timeout=4.0)
    client = system.new_client(team="t")
    client.stage_project(FILES)
    result = system.run(client.submit())
    assert result.status is JobStatus.SUCCEEDED
    system.run(until=system.sim.now + 600.0)

    tasks = system.broker.channel("rai/tasks")
    assert (tasks.depth, len(tasks.in_flight)) == (0, 0)
    assert tasks.total_delivered == 1
    assert tasks.total_requeued == 0
    assert tasks.total_acked == 1
