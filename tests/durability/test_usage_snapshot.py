"""Usage meter and cost books participate in snapshot/restore.

The acceptance bar: after a snapshot → restore into a fresh deployment,
the books still satisfy attributed + idle == the pre-crash fleet total
within 1e-6, and per-team ledgers and job exemplars survive.
"""

import pytest

from repro.cluster import Provisioner
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.durability.snapshot import capture, install
from repro.obs import usage

pytestmark = [pytest.mark.durability, pytest.mark.usage]


@pytest.fixture(autouse=True)
def short_windows(monkeypatch):
    """300 s billing windows, so a run settles several before the crash."""
    monkeypatch.setattr(usage, "WINDOW_SECONDS", 300.0)

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\nint main(){}\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def _metered_run(seed=81, teams=("team-a", "team-b")):
    system = RaiSystem(seed=seed)
    provisioner = Provisioner(system)
    provisioner.launch_many(2, instance_type="p2.xlarge",
                            max_concurrent_jobs=2, boot_delay=1.0)
    system.run(until=5)
    for team in teams:
        client = system.new_client(team=team)
        client.stage_project(FILES)
        result = system.run(client.submit())
        assert result.status is JobStatus.SUCCEEDED
    # Retire the fleet and settle every complete window so the books
    # have both settled history and a frozen fleet total.
    provisioner.terminate_all()
    system.cost_allocator.refresh()
    return system, provisioner


class TestUsageSnapshot:
    def test_meter_and_books_round_trip(self):
        system, provisioner = _metered_run()
        fleet_total = provisioner.total_cost()
        usage_before = {t: dict(r) for t, r in system.usage.tenants.items()}
        snap = capture(system)
        assert snap["usage"] is not None
        assert snap["cost"] is not None

        target = RaiSystem(seed=81)
        counts = install(target, snap)
        assert counts["usage_tenants"] >= 2
        assert {t: dict(r) for t, r in target.usage.tenants.items()} == \
            usage_before
        # Conservation against the PRE-CRASH fleet total.
        view = target.cost_allocator.preview()
        assert view["attributed_total"] + view["idle_cost"] == \
            pytest.approx(fleet_total, abs=1e-6)

    def test_restored_books_keep_balancing_under_new_load(self):
        system, _ = _metered_run(seed=82)
        snap = capture(system)

        target = RaiSystem(seed=82)
        install(target, snap)
        target.storage.rebuild_chunk_refcounts()
        target.storage.rebuild_upload_bases()
        restored_base = target.cost_allocator.preview()["fleet_cost"]
        # New fleet, new jobs on the restored deployment: fresh accrual
        # stacks on top of the carried books without double counting.
        provisioner = Provisioner(target)
        provisioner.launch_many(2, instance_type="p2.xlarge",
                                max_concurrent_jobs=2, boot_delay=1.0)
        target.run(until=target.sim.now + 5)
        client = target.new_client(team="team-c")
        client.stage_project(FILES)
        result = target.run(client.submit())
        assert result.status is JobStatus.SUCCEEDED

        view = target.cost_allocator.preview()
        assert view["fleet_cost"] == pytest.approx(
            restored_base + provisioner.total_cost(), abs=1e-6)
        assert view["attributed_total"] + view["idle_cost"] == \
            pytest.approx(view["fleet_cost"], abs=1e-6)
        assert target.usage.tenants["team-c"]["container_seconds"] > 0

    def test_job_exemplars_survive_restore(self):
        system, _ = _metered_run(seed=83, teams=("team-a",))
        top_before = [(j.job_id, j.tenant, j.trace_id)
                      for j in system.usage.top_jobs()]
        assert top_before
        snap = capture(system)
        target = RaiSystem(seed=83)
        install(target, snap)
        top_after = [(j.job_id, j.tenant, j.trace_id)
                     for j in target.usage.top_jobs()]
        assert top_after == top_before

    def test_pre_usage_snapshot_installs_cleanly(self):
        """Snapshots from before metering existed restore to empty books."""
        system, _ = _metered_run(seed=84)
        snap = capture(system)
        del snap["usage"]
        del snap["cost"]
        target = RaiSystem(seed=84)
        install(target, snap)
        assert target.usage.total_records == 0
        assert target.cost_allocator.fleet_cost == 0.0

        snap2 = capture(system)
        snap2["usage"] = None
        snap2["cost"] = None
        target2 = RaiSystem(seed=84)
        install(target2, snap2)
        assert target2.usage.total_records == 0
