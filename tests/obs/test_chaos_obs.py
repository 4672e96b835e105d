"""Chaos suite for repro.obs: tracing under crashes, eviction, stalls.

The point of distributed tracing is precisely the run that went wrong,
so these tests exercise the ugly paths: a worker crash mid-job with
broker redelivery (the trace must stitch both attempts together), ring
eviction while a job is still running (its trace must survive), and a
metrics scraper that stops heartbeating (the operator report must say
so).
"""

import pytest

from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.core.telemetry import health_report
from repro.obs import store as store_module
from repro.obs.scrape import INTERVAL_SECONDS
from repro.obs.span import SpanStatus

pytestmark = [pytest.mark.obs, pytest.mark.chaos]

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def _submit_one(system, team):
    client = system.new_client(team=team)
    client.stage_project(FILES)
    return system.run(client.submit())


class TestCrashRedeliveryTrace:
    """Mirror of the headline at-least-once test, viewed through obs."""

    @pytest.fixture
    def crashed_run(self):
        system = RaiSystem.standard(num_workers=1, seed=66)
        system.start_caretaker(interval=30.0, in_flight_timeout=600.0)
        victim = system.workers[0]

        client = system.new_client(team="resilient-team")
        client.stage_project(FILES)
        job_proc = system.sim.process(client.submit())

        def chaos(sim):
            yield sim.timeout(5.0)
            assert victim.active_jobs == 1
            victim.crash()
            yield sim.timeout(60.0)
            system.add_worker()

        system.sim.process(chaos(system.sim))
        result = system.run(job_proc)
        assert result.status is JobStatus.SUCCEEDED
        return system, result, victim

    def test_one_trace_spans_both_attempts(self, crashed_run):
        system, result, victim = crashed_run
        trace = system.tracer.store.trace_for_job(result.job_id)
        assert trace is not None
        # Both worker attempts landed in the SAME trace.
        jobs = [s for s in trace.spans if s.name == "worker.job"]
        assert len(jobs) == 2
        first, second = sorted(jobs, key=lambda s: s.start_time)
        assert first.attributes["attempt"] == 1
        assert first.attributes["worker"] == victim.id
        assert second.attributes["attempt"] == 2
        assert second.attributes["worker"] != victim.id
        assert second.attributes["status"] == "succeeded"

    def test_crashed_attempt_closed_with_fault_event(self, crashed_run):
        system, result, victim = crashed_run
        trace = system.tracer.store.trace_for_job(result.job_id)
        first = sorted([s for s in trace.spans if s.name == "worker.job"],
                       key=lambda s: s.start_time)[0]
        # The crash closed the span (error), it didn't orphan it open.
        assert not first.is_open
        assert first.status == SpanStatus.ERROR
        assert "crashed" in first.status_message
        events = {name for (_, name, _) in first.events}
        assert "fault.worker_crash" in events
        # Every span in the trace eventually closed: nothing leaks live.
        assert all(not s.is_open for s in trace.spans)
        assert not trace.is_live

    def test_redelivery_chains_deliver_spans(self, crashed_run):
        system, result, victim = crashed_run
        trace = system.tracer.store.trace_for_job(result.job_id)
        # Deliver spans on the task topic: one per attempt, chained.
        delivers = sorted(
            (s for s in [s for s in trace.spans if s.name == "broker.deliver"]
             if s.attributes.get("topic") == "rai"),
            key=lambda s: s.attributes["attempt"])
        assert [d.attributes["attempt"] for d in delivers] == [1, 2]
        redelivered = delivers[1]
        assert any(name == "redelivery"
                   for (_, name, _) in redelivered.events)
        # The redelivery parents on the first delivery, not the client.
        assert redelivered.parent_id == delivers[0].span_id


class TestRingEvictionInSystem:
    def test_resubmission_storm_keeps_latest_traces(self, monkeypatch):
        monkeypatch.setattr(store_module, "MAX_TRACES", 2)
        system = RaiSystem.standard(num_workers=1, seed=7)
        results = [_submit_one(system, f"team-{i}") for i in range(5)]
        store = system.tracer.store
        assert len(store) == 2
        assert store.total_evicted == 3
        # The newest job's trace is intact and complete.
        last = system.tracer.store.trace_for_job(results[-1].job_id)
        assert last is not None
        assert {"client.submit", "worker.job"} <= {s.name for s in last.spans}
        assert all(not s.is_open for s in last.spans)
        # The oldest jobs were evicted, index included.
        for result in results[:3]:
            assert system.tracer.store.trace_for_job(result.job_id) is None

    def test_eviction_never_orphans_running_job(self, monkeypatch):
        """A live trace survives a storm of finished ones around it."""
        monkeypatch.setattr(store_module, "MAX_TRACES", 2)
        system = RaiSystem.standard(num_workers=2, seed=7)

        slow_client = system.new_client(team="slow")
        slow_client.stage_project({
            "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
        })
        slow_proc = system.sim.process(slow_client.submit())

        def storm(sim):
            # While the slow job runs, five quick jobs churn the ring.
            for i in range(5):
                fast = system.new_client(team=f"fast-{i}")
                fast.stage_project(FILES)
                yield from fast.submit()

        system.sim.process(storm(system.sim))
        result = system.run(slow_proc)
        assert result.status is JobStatus.SUCCEEDED
        trace = system.tracer.store.trace_for_job(result.job_id)
        assert trace is not None, "live trace was evicted mid-flight"
        assert any(s.name == "worker.job" for s in trace.spans), \
            "worker spans orphaned"
        assert all(not s.is_open for s in trace.spans)


def _advance(system, seconds):
    def idle(sim):
        yield sim.timeout(seconds)

    system.run(idle(system.sim))


class TestStuckSamplerAlert:
    """The sampler is the deployment's metrics scraper; its watchdog is
    the generic heartbeat ``start_observability`` registers."""

    def _observed(self):
        system = RaiSystem.standard(num_workers=1, seed=3)
        system.start_observability()
        return system

    def test_stalled_sampler_flags_in_report(self, monkeypatch):
        system = self._observed()
        _advance(system, 3 * INTERVAL_SECONDS)
        assert system.scraper.total_scrapes == 3
        # Wedge the scraper: the loop still wakes, and takes no snapshot.
        monkeypatch.setattr(system.scraper, "scrape_now",
                            system.scraper.latest)
        _advance(system, 10 * INTERVAL_SECONDS)
        assert system.scraper.total_scrapes == 3
        report = health_report(system)
        assert "ALERT stuck:metrics-scraper" in report
        assert any(a.name == "stuck:metrics-scraper"
                   for a in system.alerts.active())

    def test_healthy_sampler_not_flagged(self):
        system = self._observed()
        _submit_one(system, "healthy")
        _advance(system, 100.0)
        report = health_report(system)
        assert "stuck" not in report
        assert system.alerts.total_fired == 0
