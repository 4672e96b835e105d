"""Per-tenant usage metering and cost attribution (``repro.obs.usage``).

Covers the meter's accumulation semantics, the allocator's conservation
invariant (attributed + idle == fleet total, exactly), window events,
the `rai usage` / `rai cost` verbs, and snapshot round
trips — plus an end-to-end run where real submissions on a provisioned
fleet reconcile against ``Provisioner.total_cost()`` within 1e-6.
"""

import pytest

from repro.cluster import Provisioner
from repro.core.config import SystemConfig
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.obs import usage as usage_module
from repro.obs.events import EventLog, EventType
from repro.obs.usage import (
    UNATTRIBUTED,
    CostAllocator,
    UsageMeter,
)

pytestmark = [pytest.mark.obs, pytest.mark.usage]

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\nint main(){}\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FakeProvider:
    """Linear-accrual fleet: ``rate_per_hour`` from t=0, ``slots`` wide."""

    def __init__(self, rate_per_hour=1.0, slots=1):
        self.rate = rate_per_hour
        self.slots = slots

    def total_cost(self, now):
        return self.rate * now / 3600.0

    def capacity_slot_seconds(self, start, end):
        return max(0.0, end - start) * self.slots


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def short_windows(monkeypatch):
    """100 s billing windows, so a test closes several."""
    monkeypatch.setattr(usage_module, "WINDOW_SECONDS", 100.0)


@pytest.fixture
def meter(clock, short_windows):
    return UsageMeter(clock)


@pytest.mark.usefixtures("short_windows")
class TestUsageMeter:
    def test_record_accumulates_three_rollups(self, meter, clock):
        clock.now = 10.0
        meter.record("container_seconds", 5.0, tenant="team-a")
        clock.now = 150.0  # next window
        meter.record("container_seconds", 7.0, tenant="team-a")
        meter.record("container_seconds", 2.0, tenant="team-b")
        assert meter.totals["container_seconds"] == pytest.approx(14.0)
        assert meter.tenants["team-a"]["container_seconds"] == \
            pytest.approx(12.0)
        assert meter.window(0)["team-a"]["container_seconds"] == \
            pytest.approx(5.0)
        assert meter.window(1)["team-a"]["container_seconds"] == \
            pytest.approx(7.0)
        assert meter.tenant_count() == 2

    def test_missing_tenant_is_unattributed(self, meter):
        meter.record("broker_messages", 1.0, tenant=None)
        meter.record("broker_messages", 1.0, tenant="")
        assert meter.tenants[UNATTRIBUTED]["broker_messages"] == 2.0
        assert meter.tenant_count() == 0  # overhead is not a tenant

    def test_disabled_meter_is_inert(self, clock):
        meter = UsageMeter(clock, enabled=False)
        meter.record("container_seconds", 5.0, tenant="team-a")
        meter.record_job("team-a", job_id="j1", container_seconds=5.0)
        assert meter.totals == {}
        assert meter.total_records == 0
        assert meter.jobs == {}

    def test_record_job_fans_out_and_notes_exemplar(self, meter, clock):
        clock.now = 42.0
        meter.record_job("team-a", job_id="job-1", trace_id="tr-1",
                         container_seconds=3.0, gpu_seconds=3.0,
                         slot_seconds=9.0, bytes_downloaded=100,
                         bytes_uploaded=50, build_seconds_saved=1.5)
        res = meter.tenants["team-a"]
        assert res["container_seconds"] == 3.0
        assert res["gpu_seconds"] == 3.0
        assert res["slot_seconds"] == 9.0
        assert res["storage_bytes_downloaded"] == 100
        assert res["storage_bytes_uploaded"] == 50
        assert res["build_seconds_saved"] == 1.5
        exemplar = meter.jobs["job-1"]
        assert exemplar.tenant == "team-a"
        assert exemplar.trace_id == "tr-1"

    def test_exemplars_bounded_keep_most_expensive(self, clock, monkeypatch):
        monkeypatch.setattr(usage_module, "MAX_JOBS", 3)
        meter = UsageMeter(clock)
        for i, seconds in enumerate([5.0, 1.0, 3.0, 4.0, 0.5]):
            meter.record_job("t", job_id=f"job-{i}",
                             container_seconds=seconds)
        assert len(meter.jobs) == 3
        kept = {j.job_id for j in meter.top_jobs()}
        assert kept == {"job-0", "job-3", "job-2"}  # 5.0, 4.0, 3.0

    def test_snapshot_round_trip(self, meter, clock):
        clock.now = 10.0
        meter.record("container_seconds", 5.0, tenant="team-a")
        meter.record_job("team-b", job_id="j9", trace_id="tr",
                         container_seconds=2.0)
        snap = meter.to_snapshot()
        restored = UsageMeter(clock)
        restored.install_snapshot(snap)
        assert restored.totals == meter.totals
        assert restored.tenants == meter.tenants
        assert restored.windows == meter.windows
        assert restored.jobs["j9"].trace_id == "tr"
        assert restored.total_records == meter.total_records


@pytest.mark.usefixtures("short_windows")
class TestCostAllocator:
    def _harness(self, clock, rate=3600.0, slots=1, events=None):
        meter = UsageMeter(clock)
        allocator = CostAllocator(meter, clock, events=events)
        provider = FakeProvider(rate_per_hour=rate, slots=slots)
        allocator.attach_provisioner(provider)
        return meter, allocator, provider

    def test_window_close_splits_by_usage_share(self, clock):
        # $3600/h == $1/s fleet; window 100s => $100 fleet cost.
        meter, allocator, provider = self._harness(clock)
        meter.record("container_seconds", 60.0, tenant="team-a", at=50.0)
        meter.record("container_seconds", 20.0, tenant="team-b", at=60.0)
        clock.now = 100.0
        allocator.refresh()
        assert allocator.windows_closed == 1
        window = allocator.closed[0]
        # 80 busy slot-seconds over 100 capacity -> 80% utilisation:
        # $80 attributed by share (60:20), $20 idle.
        assert window.utilization == pytest.approx(0.8)
        assert window.tenant_costs["team-a"] == pytest.approx(60.0)
        assert window.tenant_costs["team-b"] == pytest.approx(20.0)
        assert window.idle_cost == pytest.approx(20.0)
        assert window.fleet_cost == pytest.approx(100.0)

    def test_conservation_is_exact_including_partial_window(self, clock):
        meter, allocator, provider = self._harness(clock, slots=2)
        for at, tenant, amount in ((10.0, "team-a", 33.3), (60.0, "team-b", 7.77),
                                   (120.0, "team-a", 11.1), (260.0, "team-c", 0.123)):
            meter.record("container_seconds", amount, tenant=tenant, at=at)
        clock.now = 275.0  # two closed windows + one partial
        allocator.refresh()
        assert allocator.windows_closed == 2
        view = allocator.preview()
        assert view["attributed_total"] + view["idle_cost"] == \
            pytest.approx(provider.total_cost(275.0), abs=1e-9)

    def test_unattributed_usage_lands_in_idle(self, clock):
        meter, allocator, provider = self._harness(clock)
        meter.record("container_seconds", 50.0, tenant="team-a", at=10.0)
        meter.record("container_seconds", 50.0, tenant=None, at=20.0)
        clock.now = 100.0
        allocator.refresh()
        window = allocator.closed[0]
        # 100% utilisation, but only half the busy time is owned:
        # team-a gets $50, the unattributed half stays in idle/overhead.
        assert window.tenant_costs == {"team-a": pytest.approx(50.0)}
        assert window.idle_cost == pytest.approx(50.0)

    def test_usage_beyond_capacity_caps_utilization(self, clock):
        meter, allocator, provider = self._harness(clock, slots=1)
        meter.record("container_seconds", 500.0, tenant="team-a", at=10.0)
        clock.now = 100.0
        allocator.refresh()
        assert allocator.closed[0].utilization == 1.0
        assert allocator.closed[0].tenant_costs["team-a"] == \
            pytest.approx(100.0)
        assert allocator.closed[0].idle_cost == pytest.approx(0.0)

    def test_no_provider_means_no_cost_but_books_balance(self, clock):
        meter = UsageMeter(clock)
        allocator = CostAllocator(meter, clock)
        meter.record("container_seconds", 10.0, tenant="team-a", at=5.0)
        clock.now = 250.0
        allocator.refresh()
        view = allocator.preview()
        assert view["fleet_cost"] == 0.0
        assert view["attributed_total"] == 0.0
        assert view["idle_cost"] == 0.0

    def test_window_events_emitted(self, clock):
        events = EventLog(clock=clock)
        meter, allocator, provider = self._harness(clock, events=events)
        meter.record("container_seconds", 10.0, tenant="team-a", at=5.0)
        clock.now = 100.0
        allocator.refresh()
        samples = events.query(type=EventType.USAGE_SAMPLE)
        assert len(samples) == 1
        assert samples[0].fields["team"] == "team-a"
        assert samples[0].fields["cost_usd"] == pytest.approx(10.0)
        windows = events.query(type=EventType.COST_WINDOW)
        assert len(windows) == 1
        assert windows[0].fields["fleet_cost_usd"] == pytest.approx(100.0)
        assert windows[0].fields["attributed_cost_usd"] + \
            windows[0].fields["idle_cost_usd"] == \
            pytest.approx(windows[0].fields["fleet_cost_usd"])

    def test_allocator_snapshot_round_trip_preserves_books(self, clock):
        meter, allocator, provider = self._harness(clock)
        meter.record("container_seconds", 80.0, tenant="team-a", at=10.0)
        clock.now = 200.0
        allocator.refresh()
        fleet_before = allocator.fleet_cost
        snap = allocator.to_snapshot()

        meter2 = UsageMeter(clock)
        meter2.install_snapshot(meter.to_snapshot())
        restored = CostAllocator(meter2, clock)
        restored.install_snapshot(snap)
        # Books balance without any provider: the settled fleet cost is
        # carried, and attributed + idle still equals it exactly.
        assert restored.fleet_cost == pytest.approx(fleet_before)
        assert sum(restored.attributed.values()) + restored.idle_cost == \
            pytest.approx(fleet_before, abs=1e-9)
        view = restored.preview(250.0)
        assert view["attributed_total"] + view["idle_cost"] == \
            pytest.approx(view["fleet_cost"], abs=1e-9)


def _submit(system, client):
    result = system.run(client.submit())
    assert result.status is JobStatus.SUCCEEDED
    # A warm fleet answers well inside the rate limit: wait it out, so the
    # team's next submission is accepted.
    system.run(until=system.sim.now + system.config.rate_limit_seconds)
    return result


def _provisioned_system(seed=11, teams=("team-a", "team-b")):
    system = RaiSystem(seed=seed)
    provisioner = Provisioner(system)
    provisioner.launch_many(2, instance_type="p2.xlarge",
                            max_concurrent_jobs=2, boot_delay=1.0)
    system.run(until=5)   # workers join
    clients = []
    for team in teams:
        client = system.new_client(team=team)
        client.stage_project(FILES)
        clients.append(client)
    return system, provisioner, clients


class TestEndToEnd:
    def test_jobs_meter_and_books_reconcile_with_provisioner(self):
        system, provisioner, clients = _provisioned_system()
        for client in clients:
            _submit(system, client)
            _submit(system, client)
        meter = system.usage
        for client in clients:
            res = meter.tenants[client.team]
            assert res["container_seconds"] > 0
            assert res["gpu_seconds"] > 0          # p2.xlarge has a K80
            assert res["slot_seconds"] >= res["container_seconds"]
            assert res["storage_bytes_uploaded"] > 0
            assert res["storage_bytes_downloaded"] > 0
            assert res["storage_bytes_stored"] > 0
            assert res["docdb_ops"] > 0
            assert res["broker_messages"] > 0
        # The acceptance bar: attributed + idle == Provisioner.total_cost
        # within 1e-6, at an arbitrary (partial-window) instant.
        view = system.cost_allocator.preview()
        assert view["attributed_total"] + view["idle_cost"] == \
            pytest.approx(provisioner.total_cost(), abs=1e-6)
        assert view["fleet_cost"] == \
            pytest.approx(provisioner.total_cost(), abs=1e-6)

    def test_job_exemplars_carry_trace_ids(self):
        system, provisioner, clients = _provisioned_system(seed=12)
        result = _submit(system, clients[0])
        jobs = {j.job_id: j for j in system.usage.top_jobs()}
        assert result.job_id in jobs
        exemplar = jobs[result.job_id]
        assert exemplar.tenant == clients[0].team
        assert exemplar.trace_id is not None
        assert system.tracer.store.trace(exemplar.trace_id) is not None

    def test_metering_disabled_records_nothing(self):
        config = SystemConfig(observers_enabled=False)
        system = RaiSystem.standard(num_workers=1, seed=13, config=config)
        client = system.new_client(team="team-x")
        client.stage_project(FILES)
        _submit(system, client)
        assert system.usage.total_records == 0
        assert system.usage.tenants == {}

    def test_warm_pool_hit_bills_acquiring_team(self):
        """A container filled at boot waits for its first job on the
        platform's books; a hit on one a job returned bills the team that
        takes it.  Sequential jobs use up the fill within one job each."""
        system, provisioner, clients = _provisioned_system(seed=14,
                                                           teams=("team-a",))
        filled = sum(worker.pool.filled for worker in system.workers)
        # Two workers x two slots x two containers a slot: one to run a
        # job on while the one returned a job ago resets.
        assert filled == 8
        _submit(system, clients[0])   # takes a filled container
        assert "warm_slot_seconds" not in system.usage.tenants["team-a"]
        assert system.usage.tenants[UNATTRIBUTED]["warm_slot_seconds"] > 0
        for _ in range(filled):
            _submit(system, clients[0])
        assert system.usage.tenants["team-a"]["warm_slot_seconds"] > 0

    def test_buildcache_replay_credits_saved_seconds(self):
        system, provisioner, clients = _provisioned_system(seed=15,
                                                           teams=("team-a",))
        _submit(system, clients[0])
        first = system.usage.tenants["team-a"]["container_seconds"]
        _submit(system, clients[0])   # resubmission replays the build
        saved = system.usage.tenants["team-a"]["build_seconds_saved"]
        second = system.usage.tenants["team-a"]["container_seconds"] - first
        assert saved > 0
        assert second < first          # the replay really was cheaper


class TestCliVerbs:
    def test_rai_usage_renders_ranked_teams(self):
        from repro.core.cli import RaiCLI

        system, provisioner, clients = _provisioned_system(seed=16)
        for client in clients:
            _submit(system, client)
        cli = RaiCLI(system, clients[0])
        out = cli.run_command("rai usage")
        assert "usage by team" in out
        for client in clients:
            assert client.team in out

    def test_rai_cost_lists_tenants_conservation_and_exemplars(self):
        from repro.core.cli import RaiCLI

        system, provisioner, clients = _provisioned_system(seed=17)
        results = [_submit(system, client) for client in clients]
        cli = RaiCLI(system, clients[0])
        out = cli.run_command("rai cost")
        assert "cost by team" in out
        assert "most expensive jobs" in out
        for client in clients:
            assert client.team in out
        for result in results:
            assert result.job_id in out
        assert "fleet $" in out and "idle/overhead $" in out

    def test_rai_cost_without_fleet_still_lists_active_teams(self, client):
        from repro.core.cli import RaiCLI

        system = client.system
        _submit(system, client)
        out = RaiCLI(system, client).run_command("rai cost")
        assert "test-team" in out
        assert "$0.0000" in out   # no provisioner -> zero cost, zero fleet

    def test_stats_carries_usage_and_cost_sections(self):
        system, provisioner, clients = _provisioned_system(seed=18)
        _submit(system, clients[0])
        stats = system.stats()
        assert stats["usage"]["tenants"] >= 1
        assert stats["cost"]["fleet_cost_usd"] > 0
