"""The meter's exemplar table against the linear scan it replaced.

``UsageMeter`` keeps the ``max_jobs`` most expensive jobs and finds the
one to give up through a heap.  The oracle below is the design it
replaced, kept here only as a specification: scan the whole table for the
cheapest exemplar (first entered among equals) on every job once the
table is full.  Generated job streams — equal costs, redelivered job ids
whose seconds add up, ids that come back after eviction, snapshot
round-trips — must retain the same exemplars, in the same order, with the
same totals.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.usage import UsageMeter

pytestmark = pytest.mark.usage

jobs = st.tuples(st.just("job"), st.integers(0, 11),
                 st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.5, 8.0]),
                 st.sampled_from([0.0, 0.25]))
ops = st.one_of(jobs, jobs, jobs, jobs, st.tuples(st.just("restore")))


def linear_note(table, max_jobs, job_id, seconds, gpu):
    """The replaced ``_note_job``: ``table`` maps id -> [seconds, gpu]."""
    if job_id in table:
        table[job_id][0] += seconds
        table[job_id][1] += gpu
        return
    if len(table) >= max_jobs:
        cheapest = min(table, key=lambda j: table[j][0])
        if table[cheapest][0] >= seconds:
            return
        del table[cheapest]
    table[job_id] = [seconds, gpu]


@settings(max_examples=200, deadline=None)
@given(max_jobs=st.integers(1, 5), stream=st.lists(ops, max_size=80))
def test_heap_retains_what_the_linear_scan_retained(max_jobs, stream):
    meter = UsageMeter(lambda: 0.0, max_jobs=max_jobs)
    table = {}
    for op, *args in stream:
        if op == "job":
            number, seconds, gpu = args
            meter.record_job("team", job_id=f"job-{number}",
                             container_seconds=seconds, gpu_seconds=gpu)
            linear_note(table, max_jobs, f"job-{number}", seconds, gpu)
        else:
            snap = json.loads(json.dumps(meter.to_snapshot()))
            meter = UsageMeter(lambda: 0.0, max_jobs=max_jobs)
            meter.install_snapshot(snap)
        assert [(j.job_id, j.container_seconds, j.gpu_seconds)
                for j in meter.jobs.values()] == \
            [(job_id, *row) for job_id, row in table.items()]
        # Redeliveries leave entries behind; they are shed, not hoarded.
        assert len(meter._cheapest) <= 2 * max_jobs
