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
from repro.obs.usage import UsageMeter
from repro.workload.hotpath import DEFAULT_SCALES, run_hotpath

pytestmark = [pytest.mark.perf, pytest.mark.usage]

#: 10 students x 6 resubmissions on 4 workers.
MEDIUM_SCALE = next(s for s in DEFAULT_SCALES if s.name == "medium")

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
    for number in range(meter.max_jobs):
        meter.record_job("team", job_id=f"kept-{number}",
                         container_seconds=CountedSeconds(rng.uniform(1, 9)))
    assert len(meter.jobs) == meter.max_jobs
    # pop + push + the floor check, each at most one heap height
    budget = 3 * math.ceil(math.log2(meter.max_jobs)) + 2
    worst = evicted = 0
    for number in range(1200):
        before = CountedSeconds.comparisons
        meter.record_job("team", job_id=f"new-{number}",
                         container_seconds=CountedSeconds(rng.uniform(0, 10)))
        worst = max(worst, CountedSeconds.comparisons - before)
        evicted += f"new-{number}" in meter.jobs
    assert 0 < evicted < 1200            # both outcomes were exercised
    assert len(meter.jobs) == meter.max_jobs
    assert worst <= budget


def test_metering_on_changes_no_results():
    on = run_hotpath(MEDIUM_SCALE, config=SystemConfig())
    config_off = SystemConfig()
    config_off.usage_metering_enabled = False
    off = run_hotpath(MEDIUM_SCALE, config=config_off)
    assert on["submissions_completed"] == off["submissions_completed"]
    assert on["latency_s"] == off["latency_s"]
