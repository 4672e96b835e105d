"""Alert manager tests: incident lifecycle, watchdogs, SLO wiring."""

import pytest

from repro.obs.alerts import MAX_HISTORY, Alert, AlertManager
from repro.obs.events import EventLog, EventType
from repro.obs.metrics import MetricsRegistry
from repro.obs.scrape import INTERVAL_SECONDS, MetricsScraper
from repro.obs.slo import SloEngine, SloSpec

pytestmark = [pytest.mark.obs, pytest.mark.slo]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def events(clock):
    return EventLog(clock=clock)


@pytest.fixture
def manager(clock, events):
    return AlertManager(clock, events=events)


def incidents(manager, name):
    """``manager``'s incidents of alert ``name``, oldest first."""
    return [a for a in manager.incidents() if a.name == name]


class TestIncidentLifecycle:
    def test_fire_and_resolve_one_incident(self, manager, clock, events):
        clock.now = 10.0
        alert = manager.fire("disk-full", summary="disk at 98%")
        assert alert.active
        assert alert.state == "firing"
        assert any(a.name == "disk-full" for a in manager.active())
        clock.now = 50.0
        resolved = manager.resolve("disk-full")
        assert resolved is alert
        assert not alert.active
        assert alert.resolved_at == 50.0
        assert not any(a.name == "disk-full" for a in manager.active())
        # Both transitions hit the event log.
        fired = events.query(type=EventType.ALERT_FIRED)
        cleared = events.query(type=EventType.ALERT_RESOLVED)
        assert fired[0].fields["alert"] == "disk-full"
        assert cleared[0].fields["duration"] == pytest.approx(40.0)

    def test_refire_is_deduped_but_refreshes_fields(self, manager, clock):
        first = manager.fire("x", summary="s", burn=1.5)
        clock.now = 99.0
        second = manager.fire("x", summary="other words", burn=3.0)
        assert second is first           # same incident object
        assert first.fired_at == 0.0     # original fire time kept
        assert first.fields["burn"] == 3.0  # latest context wins
        assert manager.total_fired == 1
        assert len(incidents(manager, "x")) == 1

    def test_resolve_rearms_for_a_new_incident(self, manager, clock):
        manager.fire("x", summary="s")
        clock.now = 10.0
        manager.resolve("x")
        clock.now = 20.0
        second = manager.fire("x", summary="again")
        assert second.fired_at == 20.0
        assert second.active
        assert len(incidents(manager, "x")) == 2
        assert manager.total_fired == 2
        assert manager.total_resolved == 1

    def test_resolve_without_incident_is_noop(self, manager):
        assert manager.resolve("never-fired") is None
        assert manager.total_resolved == 0

    def test_history_is_bounded(self, clock):
        manager = AlertManager(clock)
        for i in range(MAX_HISTORY + 2):
            manager.fire(f"a{i}", summary="s")
            manager.resolve(f"a{i}")
        assert len(manager.history) == MAX_HISTORY
        assert [a.name for a in manager.history][:2] == ["a2", "a3"]
        assert manager.total_fired == MAX_HISTORY + 2

    def test_active_sorted_by_fire_time(self, manager, clock):
        clock.now = 5.0
        manager.fire("late", summary="s")
        manager.fire("later", summary="s", at=9.0)
        manager.fire("early", summary="s", at=1.0)
        assert [a.name for a in manager.active()] == \
            ["early", "late", "later"]

    def test_stats_and_to_dict(self, manager, clock):
        manager.fire("x", summary="s", severity="critical", k="v")
        stats = manager.stats()
        assert stats["active"] == 1
        assert stats["total_fired"] == 1
        alert = manager.active()[0]
        assert alert.severity == "critical"
        assert alert.resolved_at is None
        assert alert.fields == {"k": "v"}
        assert "firing" in repr(manager.active()[0])


class TestHeartbeatWatchdog:
    def test_grace_must_be_positive(self, manager):
        with pytest.raises(ValueError):
            manager.watch_heartbeat("x", lambda: 0.0, grace=0)

    def test_stall_fires_once_then_resolves(self, manager, clock):
        beat = {"at": 0.0}
        manager.watch_heartbeat("pump", lambda: beat["at"], grace=30.0)
        clock.now = 20.0
        assert manager.check() == []
        clock.now = 60.0  # 60s since last beat > 30s grace
        (alert,) = manager.check()
        assert alert.name == "stuck:pump"
        # Re-checking during the same stall does not open a new incident.
        clock.now = 90.0
        manager.check()
        assert manager.total_fired == 1
        # The beat resumes; the incident resolves and re-arms.
        beat["at"] = 95.0
        clock.now = 100.0
        assert manager.check() == []
        assert not any(a.name == "stuck:pump" for a in manager.active())
        assert manager.total_resolved == 1

    def test_never_beat_trips_only_after_grace(self, manager, clock):
        manager.watch_heartbeat("slow-start", lambda: None, grace=100.0)
        clock.now = 50.0
        assert manager.check() == []   # still within startup grace
        clock.now = 150.0
        (alert,) = manager.check()
        assert alert.name == "stuck:slow-start"
        assert alert.fields["last_beat"] is None


class TestSloAlerting:
    def _wired(self, clock, events):
        registry = MetricsRegistry()
        scraper = MetricsScraper(registry, clock)
        spec = SloSpec(name="lat", kind="latency", target=0.5,
                       metric="lat", threshold=10.0)
        engine = SloEngine(scraper, specs=[spec])
        manager = AlertManager(clock, events=events)
        manager.attach_slo_engine(engine)
        return registry, scraper, manager

    def test_burn_fires_critical_with_exemplars(self, clock, events):
        registry, scraper, manager = self._wired(clock, events)
        h = registry.histogram("lat")
        scraper.scrape_now()  # empty baseline at t=0
        h.observe(45.0, trace_id="tr-slow", at=5.0)
        h.observe(45.0, trace_id="tr-slower", at=6.0)
        clock.now = 30.0
        (alert,) = manager.check(scrape=True)
        assert alert.name == "slo:lat"
        assert alert.severity == "critical"
        assert alert.fields["exemplars"] == ["tr-slower"]
        assert alert.fields["fast_burn"] >= 1.0
        assert "burning" in alert.summary
        assert events.query(type=EventType.ALERT_FIRED)

    def test_burn_clearing_resolves(self, clock, events):
        registry, scraper, manager = self._wired(clock, events)
        h = registry.histogram("lat")
        scraper.scrape_now()
        h.observe(45.0)
        clock.now = 30.0
        manager.check(scrape=True)
        assert any(a.name == "slo:lat" for a in manager.active())
        # A flood of good observations pushes both windows back under
        # budget on the next judgment.
        for _ in range(20):
            h.observe(1.0)
        clock.now = 60.0
        assert manager.check(scrape=True) == []
        assert not any(a.name == "slo:lat" for a in manager.active())
        incident = incidents(manager, "slo:lat")[0]
        assert incident.resolved_at == 60.0


class TestSamplerAlertDedup:
    """The stuck-scraper warning is one incident, not a reprint per
    health_report / alerts.check call."""

    @pytest.fixture
    def stuck_system(self, monkeypatch):
        from repro.core.system import RaiSystem

        system = RaiSystem.standard(num_workers=1, seed=3)
        system.start_observability()
        system.run(until=2.5 * INTERVAL_SECONDS)
        # Scraped twice; from here on the loop takes no snapshot.
        scraper = system.scraper
        monkeypatch.setattr(scraper, "scrape_now", scraper.latest)

        def advance(sim):
            yield sim.timeout(10 * INTERVAL_SECONDS)

        system.run(advance(system.sim))
        return system

    def test_health_report_dedupes_stuck_alert(self, stuck_system):
        from repro.core.telemetry import health_report

        system = stuck_system
        first = health_report(system)
        assert "ALERT stuck:metrics-scraper" in first
        health_report(system)
        system.alerts.check()
        health_report(system)
        assert system.alerts.total_fired == 1
        assert len(incidents(system.alerts, "stuck:metrics-scraper")) == 1

    def test_recovery_resolves_the_incident(self, stuck_system,
                                            monkeypatch):
        from repro.core.telemetry import health_report

        system = stuck_system
        health_report(system)
        monkeypatch.undo()
        system.scraper.scrape_now()  # scraping resumes
        report = health_report(system)
        assert "ALERT stuck:metrics-scraper" not in report
        assert "alerts resolved" in report
        assert system.alerts.total_fired == 1
        assert system.alerts.total_resolved == 1
        incident, = incidents(system.alerts, "stuck:metrics-scraper")
        assert incident.resolved_at == system.sim.now


@pytest.mark.chaos
class TestAvailabilityAlertChaos:
    """An injected worker crash burns the availability SLO, fires an
    alert, and recovery resolves it."""

    def test_crash_fires_then_resolves_availability_alert(self):
        from repro.core.system import RaiSystem
        from repro.faults import FaultPlan, WorkerCrashFault

        system = RaiSystem.standard(num_workers=2, seed=21)
        # Starts are counted here; the plan injects only worker crashes,
        # which the monitor counts as ``faults_injected``.
        started = system.metrics.counter("workers_started")
        started.inc(len(system.workers))
        add_worker = system.add_worker

        def counted_add_worker(config=None):
            started.inc()
            return add_worker(config)

        system.add_worker = counted_add_worker
        system.slo_engine.specs.append(SloSpec(
            name="worker-availability", kind="ratio",
            good=("workers_started",), bad=("faults_injected",),
            target=0.75, description="crashes under a quarter of starts"))
        system.start_observability()
        # After the first scrape, so the crash lands inside the windows.
        plan = FaultPlan(worker_crashes=[
            WorkerCrashFault(window=(100.0, 110.0), restart_after=300.0)])
        system.start_fault_plan(plan)

        system.sim.run(until=200.0)
        assert system.events.query(type=EventType.FAULT_INJECTED)
        assert any(a.name == "slo:worker-availability"
                   for a in system.alerts.active())
        assert len(system.running_workers) == 1

        # Replacement capacity lands ~t=400; once the crash leaves the
        # fast window the alert resolves.
        system.sim.run(until=900.0)
        assert len(system.running_workers) == 2
        assert not any(a.name == "slo:worker-availability"
                       for a in system.alerts.active())
        incident, = incidents(system.alerts, "slo:worker-availability")
        assert incident.resolved_at is not None
        # Both transitions are in the event log, after the fault.
        fired = system.events.query(type=EventType.ALERT_FIRED)
        cleared = system.events.query(type=EventType.ALERT_RESOLVED)
        assert any(e.fields["alert"] == "slo:worker-availability"
                   for e in fired)
        assert any(e.fields["alert"] == "slo:worker-availability"
                   for e in cleared)
