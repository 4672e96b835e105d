"""What tracing and the event log add to every job, pinned by count.

Both are passive observers, so their cost is the records they write:
a fixed number of spans and events per job, the same on every
resubmission however long the course runs.  That they never move the
simulated timeline is pinned on the golden digest
(``tests/perf/test_shard_smoke.py``).
"""

import pytest

from repro.core.system import RaiSystem

pytestmark = [pytest.mark.perf, pytest.mark.obs]

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}

#: Per job: client submit / upload / publish, two broker deliveries, the
#: worker job, buildspec parse, storage get / put, container run, five
#: container execs, the docdb record and the result publish.
SPANS_PER_JOB = 17
#: Per job: four state changes, two build-cache lookups, the warm-pool
#: acquire, the shard route and the scheduler dispatch.
EVENTS_PER_JOB = 9


def test_spans_and_events_per_resubmitted_job_are_a_fixed_count():
    system = RaiSystem.standard(num_workers=1, seed=7)
    client = system.new_client(team="t")
    client.stage_project(FILES)
    per_job = []

    def student(sim):
        for attempt in range(4):
            if attempt:
                client.stage_project({"note.txt": f"{attempt}\n"})
                yield sim.timeout(system.config.rate_limit_seconds + 1.0)
            spans = system.tracer.store.total_spans
            events = system.events.total_emitted
            result = yield from client.submit()
            assert result.succeeded
            per_job.append((system.tracer.store.total_spans - spans,
                            system.events.total_emitted - events))

    system.run(student(system.sim))
    assert per_job[1:] == [(SPANS_PER_JOB, EVENTS_PER_JOB)] * 3
