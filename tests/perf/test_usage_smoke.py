"""Tier-1 guards for the metering acceptance bar, by count not by clock:
metering is on by default, so what it adds to every job — records
written, and comparisons made to keep the exemplar table — is pinned as
a number of operations, and turning it off must change no result.
"""

import math
import random

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RaiSystem
from repro.obs.usage import MAX_JOBS, UsageMeter
from tests.golden import resubmission_storm

pytestmark = [pytest.mark.perf, pytest.mark.usage]

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def test_meter_records_per_job_are_a_fixed_handful():
    """One record per broker message the job publishes (what a student
    sees streams as messages), plus a fixed handful for everything else:
    upload, stored bytes, docdb ops, the warm slot, the per-job roll-up."""
    system = RaiSystem.standard(num_workers=1, seed=7)
    client = system.new_client(team="t")
    client.stage_project(FILES)
    per_job = []

    def student(sim):
        for attempt in range(4):
            if attempt:
                client.stage_project({"note.txt": f"{attempt}\n"})
                yield sim.timeout(system.config.rate_limit_seconds + 1.0)
            records = system.usage.total_records
            messages = system.usage.totals.get("broker_messages", 0.0)
            yield from client.submit()
            per_job.append((
                system.usage.total_records - records,
                system.usage.totals["broker_messages"] - messages))

    system.run(student(system.sim))
    assert len(per_job) == 4
    for records, messages in per_job:
        assert 0 < records - messages <= 16
    # Resubmissions are the steady state: the same count every time.
    assert len(set(per_job[2:])) == 1


class CountedSeconds(float):
    """A job's container seconds that counts the ordering comparisons
    made on it (``==`` is left alone: tuple comparison probes with it)."""

    comparisons = 0

    def __lt__(self, other):
        CountedSeconds.comparisons += 1
        return float.__lt__(self, other)

    def __ge__(self, other):
        CountedSeconds.comparisons += 1
        return float.__ge__(self, other)

    __hash__ = float.__hash__


def test_exemplar_comparisons_per_job_are_logarithmic_with_the_table_full():
    """Once ``max_jobs`` exemplars are kept, a finished job costs a heap
    pop and a push — not a scan of the table (256 comparisons a job)."""
    meter = UsageMeter(lambda: 0.0)
    rng = random.Random(408)
    for number in range(MAX_JOBS):
        meter.record_job("team", job_id=f"kept-{number}",
                         container_seconds=CountedSeconds(rng.uniform(1, 9)))
    assert len(meter.jobs) == MAX_JOBS
    # pop + push + the floor check, each at most one heap height
    budget = 3 * math.ceil(math.log2(MAX_JOBS)) + 2
    worst = evicted = 0
    for number in range(1200):
        before = CountedSeconds.comparisons
        meter.record_job("team", job_id=f"new-{number}",
                         container_seconds=CountedSeconds(rng.uniform(0, 10)))
        worst = max(worst, CountedSeconds.comparisons - before)
        evicted += f"new-{number}" in meter.jobs
    assert 0 < evicted < 1200            # both outcomes were exercised
    assert len(meter.jobs) == MAX_JOBS
    assert worst <= budget


def test_metering_on_changes_no_results():
    on = resubmission_storm(n_students=4, n_resubmissions=3)
    off = resubmission_storm(n_students=4, n_resubmissions=3,
                             config=SystemConfig(observers_enabled=False))
    assert on.system.usage.total_records > 0
    assert off.system.usage.total_records == 0
    assert on.outcomes() == off.outcomes()
