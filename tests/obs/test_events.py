"""Unit + integration tests for the structured event log."""

import json

import pytest

from repro.core.config import SystemConfig
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.obs.events import MAX_EVENTS, Event, EventLog, EventType

pytestmark = [pytest.mark.obs, pytest.mark.slo]

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def log(clock):
    return EventLog(clock=clock)


def _submit_one(system, team):
    client = system.new_client(team=team)
    client.stage_project(FILES)
    return system.run(client.submit())


class TestEventLogUnit:
    def test_emit_stamps_clock_and_fields(self, log, clock):
        clock.now = 12.5
        event = log.emit("job.state_change", job_id="j1", team="t",
                         status="queued")
        assert event.time == 12.5
        assert event.job_id == "j1"
        assert event.fields["team"] == "t"
        assert event.fields["status"] == "queued"
        assert len(log) == 1

    def test_span_donates_trace_ids(self, log, clock):
        class FakeSpan:
            trace_id = "trace-1"
            span_id = "span-1"

        event = log.emit("x", span=FakeSpan())
        assert event.trace_id == "trace-1"
        assert event.span_id == "span-1"
        # Explicit ids win over the span's.
        event2 = log.emit("x", span=FakeSpan(), trace_id="other")
        assert event2.trace_id == "other"

    def test_noop_span_degrades_to_unlinked(self, log):
        from repro.obs.span import NOOP_SPAN

        event = log.emit("x", span=NOOP_SPAN)
        assert event.trace_id is None
        assert event.span_id is None

    def test_disabled_log_emits_nothing(self, clock):
        log = EventLog(clock=clock, enabled=False)
        assert log.emit("x", a=1) is None
        assert len(log) == 0
        assert log.total_emitted == 0

    def test_ring_overflow_tracks_drops(self, clock):
        log = EventLog(clock=clock)
        for i in range(MAX_EVENTS + 2):
            log.emit("x", i=i)
        assert len(log) == MAX_EVENTS
        assert log.total_emitted == MAX_EVENTS + 2
        assert log.dropped == 2
        assert [e.fields["i"] for e in log][:2] == [2, 3]
        # Per-type tallies survive truncation.
        assert log.counts["x"] == MAX_EVENTS + 2
        assert log.stats()["by_type"] == {"x": MAX_EVENTS + 2}

    def test_recycled_ring_reuses_event_objects(self, clock):
        # At capacity the evicted record's carcass (object and fields
        # dict) is reused in place — steady-state emission allocates
        # nothing beyond the caller's kwargs.
        log = EventLog(clock=clock)
        first = log.emit("x", i=0)
        first_fields = first.fields
        for i in range(1, MAX_EVENTS):
            log.emit("x", i=i)
        recycled = log.emit("y", i=MAX_EVENTS)
        assert recycled is first
        assert recycled.fields is first_fields
        assert recycled.type == "y"
        assert recycled.fields == {"i": MAX_EVENTS}
        assert [e.fields["i"] for e in log][-2:] == [MAX_EVENTS - 1,
                                                     MAX_EVENTS]

    def test_query_filters(self, log, clock):
        clock.now = 1.0
        log.emit("job.state_change", job_id="j1", team="a", status="queued")
        clock.now = 2.0
        log.emit("pool.fill", worker="w1")
        clock.now = 3.0
        log.emit("pool.evict", worker="w1")
        clock.now = 4.0
        log.emit("job.state_change", job_id="j2", team="b",
                 status="succeeded", trace_id="tr-2")

        assert len(log.query(type="pool.fill")) == 1
        assert len(log.query(prefix="pool.")) == 2
        assert len(log.query(job_id="j1")) == 1
        assert len(log.query(prefix="job.", job_id="j2")) == 1
        assert log.events_for_job("j2")[0].fields["status"] == "succeeded"

    def test_tail(self, log):
        for i in range(5):
            log.emit("x", i=i)
        assert [e.fields["i"] for e in log.tail(2)] == [3, 4]
        assert log.tail(0) == []

    def test_export_jsonl_round_trips(self, log, clock, tmp_path):
        clock.now = 7.0
        log.emit("a.b", trace_id="tr", job_id="j", n=3)
        record = json.loads(json.dumps(log.tail(1)[0].to_dict()))
        assert record == {"t": 7.0, "type": "a.b", "trace_id": "tr",
                          "fields": {"job_id": "j", "n": 3}}

    def test_event_repr_and_to_dict(self):
        event = Event(1.0, "x", fields={"k": "v"})
        assert "x" in repr(event)
        assert event.to_dict()["fields"] == {"k": "v"}


class TestEventsThroughTheStack:
    """One clean submission leaves a coherent audit trail."""

    def test_job_lifecycle_events(self):
        system = RaiSystem.standard(num_workers=1, seed=11)
        result = _submit_one(system, "alpha")
        assert result.status is JobStatus.SUCCEEDED
        trail = system.events.events_for_job(result.job_id)
        statuses = [e.fields.get("status") for e in trail
                    if e.type == EventType.JOB_STATE_CHANGE]
        # The ends of the audit trail; what lies between is the trace's.
        assert statuses == ["queued", "succeeded"]
        # Every lifecycle event links to the submission's trace.
        trace = system.tracer.store.trace_for_job(result.job_id)
        assert all(e.trace_id == trace.trace_id for e in trail
                   if e.type == EventType.JOB_STATE_CHANGE)
        job_span, = [s for s in trace.spans if s.name == "worker.job"]
        assert [s.name for s in trace.children_of(job_span)] == [
            "admit", "fetch", "acquire", "build", "upload", "record",
            "result.publish"]
        # Dispatch + the boot fill's pool event also landed.
        assert system.events.query(type="sched.dispatch",
                                   job_id=result.job_id)
        assert system.events.query(prefix="pool.")
        # Slot-open events from worker construction.
        assert system.events.query(type=EventType.WORKER_SLOT)

    def test_crash_redelivery_events(self):
        system = RaiSystem.standard(num_workers=1, seed=66)
        system.start_caretaker(interval=30.0, in_flight_timeout=600.0)
        victim = system.workers[0]
        client = system.new_client(team="resilient")
        client.stage_project(FILES)
        job_proc = system.sim.process(client.submit())

        def chaos(sim):
            yield sim.timeout(5.0)
            victim.crash()
            yield sim.timeout(60.0)
            system.add_worker()

        system.sim.process(chaos(system.sim))
        result = system.run(job_proc)
        assert result.status is JobStatus.SUCCEEDED
        events = system.events
        assert events.query(type=EventType.WORKER_CRASH)[0].fields[
            "worker"] == victim.id
        redelivers = events.query(type=EventType.BROKER_REDELIVER,
                                  job_id=result.job_id)
        assert redelivers and redelivers[0].fields["attempt"] == 2
        # The redeliver event links into the same trace as the job.
        trace = system.tracer.store.trace_for_job(result.job_id)
        assert redelivers[0].trace_id == trace.trace_id

    def test_fault_injection_lands_in_event_log(self):
        from repro.faults import FaultPlan, WorkerCrashFault

        system = RaiSystem.standard(num_workers=2, seed=5)
        system.start_caretaker(interval=30.0, in_flight_timeout=600.0)
        plan = FaultPlan(worker_crashes=[
            WorkerCrashFault(window=(4.0, 6.0), restart_after=60.0)])
        system.start_fault_plan(plan)
        result = _submit_one(system, "chaos-team")
        assert result.status is JobStatus.SUCCEEDED
        injected = system.events.query(type=EventType.FAULT_INJECTED)
        assert injected
        assert injected[0].fields["kind"] == "worker_crash"
        # The replacement worker is in the log too.
        replaced = system.events.query(
            type=EventType.FAULT_REPLACEMENT_WORKER)
        assert [e.fields["worker"] for e in replaced] == \
            [system.workers[-1].id]

    def test_disabled_event_log_changes_no_timeline(self):
        quiet = SystemConfig(observers_enabled=False)
        system_off = RaiSystem.standard(num_workers=1, seed=11,
                                        config=quiet)
        system_on = RaiSystem.standard(num_workers=1, seed=11)
        result_off = _submit_one(system_off, "alpha")
        result_on = _submit_one(system_on, "alpha")
        assert len(system_off.events) == 0
        assert result_off.finished_at == result_on.finished_at
