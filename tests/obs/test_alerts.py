"""Alert manager tests: incident lifecycle, the scraper watchdog, SLO
alerting."""

import pytest

from repro.obs.alerts import MAX_HISTORY, Alert, AlertManager
from repro.obs.events import EventLog, EventType
from repro.obs.metrics import MetricsRegistry
from repro.obs.scrape import INTERVAL_SECONDS, MetricsScraper

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
def scraper(clock):
    return MetricsScraper(MetricsRegistry(), clock)


@pytest.fixture
def manager(scraper, events):
    return AlertManager(scraper, events=events)


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

    def test_history_is_bounded(self, scraper):
        manager = AlertManager(scraper)
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
    """The scraper's heartbeat is its newest snapshot."""

    def test_unarmed_never_fires(self, manager, clock):
        clock.now = 1e6
        assert manager.check() == []

    def test_stall_fires_once_then_resolves(self, manager, scraper, clock):
        manager.arm_watchdog(grace=30.0)
        scraper.scrape_now()
        clock.now = 20.0
        assert manager.check() == []
        clock.now = 60.0  # 60s since last snapshot > 30s grace
        (alert,) = manager.check()
        assert alert.name == "stuck:metrics-scraper"
        assert alert.severity == "warning"
        assert alert.summary == "metrics scraper has stopped taking snapshots"
        assert alert.fields == {"component": "metrics-scraper",
                                "last_beat": 0.0, "grace": 30.0}
        # Re-checking during the same stall does not open a new incident.
        clock.now = 90.0
        manager.check()
        assert manager.total_fired == 1
        # Snapshots resume; the incident resolves and re-arms.
        clock.now = 95.0
        scraper.scrape_now()
        clock.now = 100.0
        assert manager.check() == []
        assert not any(a.name == "stuck:metrics-scraper"
                       for a in manager.active())
        assert manager.total_resolved == 1

    def test_never_beat_trips_only_after_grace(self, manager, clock):
        manager.arm_watchdog(grace=100.0)
        clock.now = 50.0
        assert manager.check() == []   # still within startup grace
        clock.now = 150.0
        (alert,) = manager.check()
        assert alert.name == "stuck:metrics-scraper"
        assert alert.fields["last_beat"] is None

    def test_grace_runs_from_arming(self, manager, scraper, clock):
        """Arming late pages neither for a never-taken snapshot nor for
        one taken long before the watchdog was armed."""
        clock.now = 10.0
        scraper.scrape_now()
        clock.now = 1000.0
        manager.arm_watchdog(grace=180.0)
        assert manager.check() == []
        clock.now = 1180.0
        assert manager.check() == []
        clock.now = 1181.0
        (alert,) = manager.check()
        assert alert.name == "stuck:metrics-scraper"
        assert alert.fields["last_beat"] == 10.0


class TestOnDemandScrapesAreNoHeartbeat:
    """Only the periodic loop beats the watchdog: an operator polling
    ``rai alerts`` (which scrapes on demand) more often than the grace
    must still see a dead scrape loop."""

    def test_polling_rai_alerts_cannot_hide_a_dead_loop(self):
        from repro.core.cli import RaiCLI
        from repro.core.system import RaiSystem
        from repro.errors import Interrupt

        system = RaiSystem.standard(num_workers=1, seed=3)
        loop = system.start_observability()
        cli = RaiCLI(system, system.new_client(team="operator"))
        stuck_at = {}

        def stop_loop():
            # The loop dies right after its t = 300 tick.
            yield system.sim.timeout(5 * INTERVAL_SECONDS + 1.0)
            loop.interrupt("scrape loop died")
            try:
                yield loop
            except Interrupt:
                pass

        def operator():
            for poll in range(1, 13):
                yield system.sim.timeout(100.0 * poll - system.sim.now)
                text = cli.run_command("rai alerts")
                stuck_at[system.sim.now] = \
                    "stuck:metrics-scraper | firing" in text

        system.sim.process(stop_loop())
        system.run(operator())
        assert system.scraper.last_scrape_at == 300.0
        # Grace is 3 intervals (180 s): the polls up to t = 400 are
        # within it; from t = 500 the alert fires and stays firing.
        assert [t for t, stuck in stuck_at.items() if stuck] == \
            [100.0 * poll for poll in range(5, 13)]
        assert stuck_at[600.0]
        (incident,) = incidents(system.alerts, "stuck:metrics-scraper")
        assert incident.active
        assert incident.fields["last_beat"] == 300.0


class TestSloAlerting:
    """The stock queue-wait objective, alerting."""

    @pytest.fixture
    def wait(self, scraper):
        return scraper.registry.histogram("sched_queue_wait_seconds")

    def test_burn_fires_critical_with_exemplars(self, manager, scraper,
                                                wait, clock, events):
        scraper.scrape_now()  # empty baseline at t=0
        wait.observe(45.0, trace_id="tr-slow", at=5.0)
        wait.observe(45.0, trace_id="tr-slower", at=6.0)
        clock.now = 30.0
        (alert,) = manager.check(scrape=True)
        assert alert.name == "slo:queue-wait-p95"
        assert alert.severity == "critical"
        assert alert.summary == ("SLO queue-wait-p95 burning: "
                                 "fast 20.0x / slow 20.0x budget")
        assert alert.fields == {"slo": "queue-wait-p95", "fast_burn": 20.0,
                                "slow_burn": 20.0,
                                "exemplars": ["tr-slower"]}
        assert events.query(type=EventType.ALERT_FIRED)

    def test_burn_clearing_resolves(self, manager, scraper, wait, clock):
        scraper.scrape_now()
        wait.observe(45.0)
        clock.now = 30.0
        manager.check(scrape=True)
        assert any(a.name == "slo:queue-wait-p95" for a in manager.active())
        # A flood of good observations pushes both windows back under
        # budget (1 bad in 21) on the next judgment.
        for _ in range(20):
            wait.observe(1.0)
        clock.now = 60.0
        assert manager.check(scrape=True) == []
        incident = incidents(manager, "slo:queue-wait-p95")[0]
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


class TestLateObservability:
    """A deployment that starts its scrape loop late is not stuck."""

    def test_arming_late_does_not_page(self):
        from repro.core.system import RaiSystem
        from repro.core.telemetry import health_report

        system = RaiSystem.standard(num_workers=1, seed=3)

        def idle(sim):
            yield sim.timeout(1000.0)

        system.run(idle(system.sim))
        system.start_observability()
        assert "ALERT stuck:metrics-scraper" not in health_report(system)
        system.run(until=system.sim.now + 10 * INTERVAL_SECONDS)
        assert "ALERT" not in health_report(system)
        assert system.alerts.total_fired == 0
        assert system.alerts.incidents() == []


@pytest.mark.chaos
class TestSuccessAlertChaos:
    """Injected storage faults fail jobs, burn the submission-success
    objective and fire its alert; once the failures leave the fast
    window the alert resolves."""

    def test_storage_faults_fire_then_resolve_success_alert(self):
        from repro.core.job import JobStatus
        from repro.core.system import RaiSystem
        from repro.faults import FaultPlan, StorageFault

        system = RaiSystem.standard(num_workers=1, seed=21)
        system.start_observability()
        # Every upload fetch fails from t=100 to t=200, so the jobs the
        # worker takes then end FAILED once their retries run out.
        system.start_fault_plan(FaultPlan(storage_faults=[
            StorageFault(op="get", rate=1.0, window=(100.0, 200.0))]))
        client = system.new_client(team="steady")
        client.stage_project({
            "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
        })
        statuses = []

        def student(sim):
            yield sim.timeout(70.0)
            for _ in range(10):
                result = yield from client.submit()
                statuses.append(result.status)
                yield sim.timeout(30.0)

        system.sim.process(student(system.sim))
        system.sim.run(until=300.0)
        assert JobStatus.FAILED in statuses
        assert system.events.query(type=EventType.FAULT_INJECTED)
        assert any(a.name == "slo:submission-success"
                   for a in system.alerts.active())

        # Later jobs succeed; once the failures leave the fast window the
        # alert resolves.
        system.sim.run(until=900.0)
        assert statuses[-1] is JobStatus.SUCCEEDED
        assert system.alerts.active() == []
        incident, = incidents(system.alerts, "slo:submission-success")
        assert incident.severity == "critical"
        assert incident.resolved_at is not None
        # Both transitions are in the event log, after the first fault.
        first_fault = system.events.query(
            type=EventType.FAULT_INJECTED)[0].time
        fired = [e for e in system.events.query(type=EventType.ALERT_FIRED)
                 if e.fields["alert"] == "slo:submission-success"]
        cleared = [e for e in system.events.query(
            type=EventType.ALERT_RESOLVED)
            if e.fields["alert"] == "slo:submission-success"]
        assert len(fired) == len(cleared) == 1
        assert first_fault < fired[0].time < cleared[0].time
