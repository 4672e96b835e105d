"""Unit tests for instance types and the provisioner."""

import pytest

from repro.cluster import (
    CostReport,
    INSTANCE_CATALOG,
    Provisioner,
    get_instance_type,
)
from repro.core.system import RaiSystem


@pytest.fixture
def system():
    return RaiSystem(seed=5)   # no initial workers


@pytest.fixture
def provisioner(system):
    return Provisioner(system)


class TestInstanceTypes:
    def test_catalog_has_course_shapes(self):
        g2 = get_instance_type("g2.2xlarge")
        p2 = get_instance_type("p2.xlarge")
        assert g2.gpu_model == "K40"
        assert p2.gpu_model == "K80"
        assert g2.hourly_cost_usd < p2.hourly_cost_usd

    def test_unknown_type(self):
        with pytest.raises(KeyError):
            get_instance_type("dgx-h100")


class TestLaunch:
    def test_worker_joins_after_boot(self, system, provisioner):
        inst = provisioner.launch("p2.xlarge")
        assert inst.worker is None
        system.run(until=inst.instance_type.boot_seconds + 1)
        assert inst.worker is not None
        assert inst.worker in system.running_workers

    def test_worker_inherits_instance_gpu(self, system, provisioner):
        inst = provisioner.launch("g2.2xlarge")
        system.run(until=200)
        assert inst.worker.config.gpu_model == "K40"

    def test_launch_many(self, system, provisioner):
        provisioner.launch_many(5, instance_type="p2.xlarge")
        system.run(until=200)
        assert len(system.running_workers) == 5

    def test_concurrency_passed_through(self, system, provisioner):
        inst = provisioner.launch("p2.xlarge", max_concurrent_jobs=4)
        system.run(until=200)
        assert inst.worker.config.max_concurrent_jobs == 4


class TestTerminate:
    def test_terminate_stops_worker(self, system, provisioner):
        inst = provisioner.launch("p2.xlarge")
        system.run(until=200)
        provisioner.terminate(inst)
        assert not inst.is_live
        assert inst.worker not in system.running_workers

    def test_terminate_during_boot_prevents_join(self, system, provisioner):
        inst = provisioner.launch("p2.xlarge")
        system.run(until=10)   # still booting
        provisioner.terminate(inst)
        system.run(until=300)
        assert inst.worker is None
        assert system.running_workers == []

    def test_terminate_idempotent(self, system, provisioner):
        inst = provisioner.launch("p2.xlarge")
        system.run(until=200)
        provisioner.terminate(inst)
        first = inst.terminated_at
        provisioner.terminate(inst)
        assert inst.terminated_at == first

    def test_terminate_count_prefers_idle(self, system, provisioner):
        provisioner.launch_many(3, instance_type="p2.xlarge")
        system.run(until=200)
        assert provisioner.terminate_count(2) == 2
        assert len(provisioner.live_instances) == 1


class TestCost:
    def test_billing_rounds_up_to_hour(self, system, provisioner):
        inst = provisioner.launch("p2.xlarge")
        system.run(until=1800)   # half an hour
        assert inst.cost_until(system.sim.now) == pytest.approx(0.90)

    def test_multi_hour_billing(self, system, provisioner):
        inst = provisioner.launch("p2.xlarge")
        system.run(until=2.5 * 3600)
        assert inst.cost_until(system.sim.now) == pytest.approx(3 * 0.90)

    def test_terminated_instance_stops_accruing(self, system, provisioner):
        inst = provisioner.launch("p2.xlarge")
        system.run(until=1000)
        provisioner.terminate(inst)
        cost_then = provisioner.total_cost()
        system.run(until=100000)
        assert provisioner.total_cost() == cost_then

    def test_cost_report(self, system, provisioner):
        provisioner.launch_many(2, instance_type="p2.xlarge")
        system.run(until=3600)
        report = CostReport.collect(provisioner)
        assert report.instances_launched == 2
        assert report.total_cost_usd == pytest.approx(2 * 0.90)
        assert "fleet" in report.render()


class TestBillingEdgeCases:
    """Partial-hour billing corners pinned (PR 10 satellite)."""

    def test_zero_duration_instance_bills_nothing(self, system, provisioner):
        inst = provisioner.launch("p2.xlarge")
        provisioner.terminate(inst)   # same instant it launched
        assert inst.terminated_at == inst.launched_at
        system.run(until=7200)
        assert inst.cost_until(system.sim.now) == 0.0

    def test_exact_hour_boundary_does_not_round_up(self, system, provisioner):
        inst = provisioner.launch("p2.xlarge")
        system.run(until=2 * 3600)
        provisioner.terminate(inst)
        # Exactly 2h is 2 billed hours, not 3 — even with float drift.
        assert inst.cost_until(system.sim.now) == pytest.approx(2 * 0.90)
        # Simulated drift just past the boundary must not add an hour.
        inst.terminated_at = inst.launched_at + 2 * 3600 + 1e-10
        assert inst.cost_until(system.sim.now) == pytest.approx(2 * 0.90)

    def test_terminate_before_boot_still_bills_first_hour(
            self, system, provisioner):
        inst = provisioner.launch("p2.xlarge")
        system.run(until=10)   # still booting (boot takes 120s)
        provisioner.terminate(inst)
        assert inst.worker is None
        # Cloud billing starts at launch, not boot: ten seconds of
        # lease is one billed hour.
        system.run(until=100000)
        assert inst.cost_until(system.sim.now) == pytest.approx(0.90)

    def test_live_instance_open_ended_billing_is_monotone(
            self, system, provisioner):
        inst = provisioner.launch("p2.xlarge")
        costs = [inst.cost_until(t) for t in (0.0, 1.0, 3600.0, 3601.0,
                                              7200.0, 7200.5)]
        assert costs == sorted(costs)
        assert costs[-1] == pytest.approx(3 * 0.90)  # 7200.5s -> 3rd hour


class TestClusterGauges:
    """CostReport's numbers, read where they live: the provisioners and
    the cost books that price every one of them."""

    def test_fleet_cost_and_occupancy_gauges(self, system, provisioner):
        provisioner.launch("p2.xlarge")
        provisioner.launch("g2.2xlarge")
        system.run(until=1800)
        assert provisioner.total_cost() == pytest.approx(0.90 + 0.65)
        assert len(provisioner.live_instances) == 2
        leased = sum(i.overlap_seconds(0.0, 1800.0)
                     for i in provisioner.instances)
        assert leased / 3600.0 == pytest.approx(1.0)    # instance-hours
        # Split by instance type, the same totals.
        by_type = {}
        for inst in provisioner.instances:
            name = inst.instance_type.name
            by_type[name] = by_type.get(name, 0.0) + inst.cost_until(1800)
        assert by_type == pytest.approx({"p2.xlarge": 0.90,
                                         "g2.2xlarge": 0.65})

    def test_gauges_sum_across_provisioners(self, system):
        first = Provisioner(system)
        second = Provisioner(system)
        first.launch("p2.xlarge")
        second.launch("p2.xlarge")
        system.run(until=600)
        assert system.cost_allocator.preview()["fleet_cost"] == \
            pytest.approx(first.total_cost() + second.total_cost())
        assert first.total_cost() + second.total_cost() == \
            pytest.approx(2 * 0.90)

    def test_terminated_instances_leave_live_gauge(self, system, provisioner):
        inst = provisioner.launch("p2.xlarge")
        system.run(until=200)
        provisioner.terminate(inst)
        assert provisioner.live_instances == []
        assert provisioner.total_cost() == pytest.approx(0.90)
