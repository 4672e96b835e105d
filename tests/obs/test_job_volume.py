"""What one job writes to the observers, pinned by count, and the shape of
its stage spans however the job ends.

Each per-job fact has one writer.  The stage loop opens one span per
stage under ``worker.job``; what a span already holds (the job accepted
and running, a pool or build-cache hit or miss, a deadline overrun, a
suppressed duplicate record) is not restated as an event.  The event log
keeps what no trace holds: the ends of a job's audit trail (``queued`` and
its terminal state), the scheduler's and the router's decisions, and the
deployment's own churn.

The scenario is a fixed storm: seed 3, two workers, six teams of three
Listing 1 jobs each.
"""

import pytest

from repro.core import pipeline
from repro.core.config import SystemConfig
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.obs.events import EventType
from tests.golden import control_plane_storm, outcome_digest

pytestmark = pytest.mark.obs

JOBS = 18
#: Per job: the queued and the terminal state change, the shard route and
#: the scheduler dispatch; once per worker: its slot and its pool fill.
EVENT_COUNTS = {EventType.JOB_STATE_CHANGE: 2 * JOBS,
                EventType.SHARD_ROUTE: JOBS, EventType.SCHED_DISPATCH: JOBS,
                EventType.WORKER_SLOT: 2, EventType.POOL_FILL: 2}
#: Per job: client submit / upload / publish, two broker deliveries, the
#: worker job, its six stages, five container execs and the result publish.
SPANS_PER_JOB = 18
#: Per job: the chunk negotiation, the container acquire and the End's
#: receipt, plus (over the storm) 28 build-cache replays, 6 probes and
#: the 2 boot-pull joins.
SPAN_EVENTS = 3 * JOBS + 28 + 6 + 2
#: Types whose facts live on the trace now; none may be emitted.
RESTATED = {"pool.hit", "pool.miss", "buildcache.hit", "buildcache.miss",
            "job.deadline_exceeded", "job.duplicate_suppressed"}

STAGE_NAMES = [stage.__name__ for stage in pipeline.STAGES]
FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def storm(config=None):
    return control_plane_storm(num_workers=2, seed=3, config=config)


def stages_of(trace) -> list:
    """Every ``worker.job`` span's stages, as ``[(name, status), ...]``
    per delivery, after checking each stage span is closed and a child
    of a ``worker.job``."""
    jobs = [s for s in trace.spans if s.name == "worker.job"]
    assert jobs
    stage_names = set(STAGE_NAMES) | {"resume", "serve"}
    for span in trace.spans:
        if span.name in stage_names:
            assert not span.is_open, span
            assert span.parent_id in {job.span_id for job in jobs}, span
    return [[(s.name, s.status) for s in trace.children_of(job)
             if s.name in stage_names] for job in jobs]


def test_storm_volume_per_job():
    system, results = storm()
    assert len(results) == JOBS
    assert {r.status for r in results} == {JobStatus.SUCCEEDED}
    events, store = system.events, system.tracer.store
    assert events.dropped == 0
    assert events.counts == EVENT_COUNTS
    assert events.total_emitted / JOBS == pytest.approx(4.22, abs=0.01)
    assert store.total_spans == SPANS_PER_JOB * JOBS
    spans = [span for r in results
             for span in store.trace_for_job(r.job_id).spans]
    assert len(spans) == SPANS_PER_JOB * JOBS
    assert sum(len(span.events) for span in spans) == SPAN_EVENTS
    assert not RESTATED & set(events.counts)
    for result in results:
        trail = [e.fields["status"] for e in events.events_for_job(
            result.job_id) if e.type == EventType.JOB_STATE_CHANGE]
        assert trail == ["queued", "succeeded"]
        delivery, = stages_of(store.trace_for_job(result.job_id))
        assert delivery == [(name, "ok") for name in STAGE_NAMES]


def test_observers_off_leave_the_storm_as_it_was():
    """Spans and events never schedule a simulator event: the same storm
    with every observer off decides every job identically (and the
    reference storm still gives ``GOLDEN_DIGEST``:
    ``tests/perf/test_shard_smoke.py``)."""
    _, on = storm()
    system, off = storm(SystemConfig(observers_enabled=False))
    assert system.events.total_emitted == system.tracer.store.total_spans == 0
    assert outcome_digest(off) == outcome_digest(on)


def one_job(system, until=None):
    """Submit one Listing 1 job; run to ``until`` (the job's process is
    returned) or to its end (its result)."""
    client = system.new_client(team="t")
    client.stage_project(FILES)
    proc = system.sim.process(client.submit())
    if until is None:
        return system.run(proc)
    system.run(until=until)
    return proc


def busy_worker(system):
    worker, = [w for w in system.workers if w.active_jobs]
    return worker


def test_rejected_job_closes_the_stage_it_failed_in():
    system = RaiSystem.standard(num_workers=1, seed=3)
    client = system.new_client(team="t")
    client.stage_project(dict(FILES, **{"rai-build.yml": "rai: [broken"}))
    result = system.run(client.submit())
    assert result.status is JobStatus.REJECTED
    trace = system.tracer.store.trace_for_job(result.job_id)
    assert stages_of(trace) == [[("admit", "error")]]


def test_deadline_closes_the_stage_it_struck_in(monkeypatch):
    # Shorter than the boot pull the job joins in ``acquire``.
    monkeypatch.setattr(pipeline, "JOB_DEADLINE_SECONDS", 10.0)
    system = RaiSystem.standard(num_workers=1, seed=3)
    result = one_job(system)
    assert (result.status, result.exit_code) == (JobStatus.FAILED, 124)
    trace = system.tracer.store.trace_for_job(result.job_id)
    assert stages_of(trace) == [[("admit", "ok"), ("fetch", "ok"),
                                 ("acquire", "error")]]
    assert not RESTATED & set(system.events.counts)


def test_stop_closes_the_running_stage():
    system = RaiSystem.standard(num_workers=1, seed=3)
    proc = one_job(system, until=46.0)      # mid-build
    busy_worker(system).stop()
    result = system.run(proc)
    assert result.status is JobStatus.FAILED
    trace = system.tracer.store.trace_for_job(result.job_id)
    assert stages_of(trace) == [[("admit", "ok"), ("fetch", "ok"),
                                 ("acquire", "ok"), ("build", "error")]]


def test_crash_closes_the_running_stage_and_the_redelivery_runs_all():
    system = RaiSystem.standard(num_workers=2, seed=3)
    system.start_caretaker(interval=30.0, in_flight_timeout=120.0)
    proc = one_job(system, until=46.0)      # mid-build
    busy_worker(system).crash()
    result = system.run(proc)
    assert result.status is JobStatus.SUCCEEDED
    trace = system.tracer.store.trace_for_job(result.job_id)
    crashed, redelivered = stages_of(trace)
    assert crashed == [("admit", "ok"), ("fetch", "ok"), ("acquire", "ok"),
                       ("build", "error")]
    assert redelivered == [(name, "ok") for name in STAGE_NAMES]
