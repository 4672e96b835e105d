"""Unit tests for the manual schedule and autoscaler."""

import pytest

from repro.cluster import (
    Autoscaler,
    AutoscalerPolicy,
    ManualSchedule,
    Provisioner,
    SchedulePhase,
)
from repro.core.config import SystemConfig
from repro.core.system import RaiSystem

DAY = 24 * 3600.0
FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


@pytest.fixture
def system():
    return RaiSystem(seed=11)


class TestManualSchedule:
    def test_course_default_shape(self):
        phases = ManualSchedule.course_default()
        assert phases[0].instance_type == "g2.2xlarge"
        assert phases[1].count == 10 and phases[1].max_concurrent_jobs == 4
        assert phases[2].count == 25 and phases[2].max_concurrent_jobs == 1

    def test_phases_applied_at_times(self, system):
        provisioner = Provisioner(system)
        phases = [
            SchedulePhase(0.0, "g2.2xlarge", 2),
            SchedulePhase(1000.0, "p2.xlarge", 3),
        ]
        schedule = ManualSchedule(provisioner, phases)
        system.sim.process(schedule.run())
        system.run(until=500)
        live = provisioner.live_instances
        assert len(live) == 2
        assert all(i.instance_type.name == "g2.2xlarge" for i in live)
        system.run(until=2000)
        live = provisioner.live_instances
        assert len(live) == 3
        assert all(i.instance_type.name == "p2.xlarge" for i in live)
        assert len(schedule.applied) == 2


class TestAutoscaler:
    def make(self, system, **kwargs):
        provisioner = Provisioner(system)
        defaults = dict(min_instances=1, max_instances=6,
                        check_interval=30.0, step=2,
                        scale_in_cooldown=600.0)
        defaults.update(kwargs)
        policy = AutoscalerPolicy(**defaults)
        scaler = Autoscaler(system, provisioner, policy)
        system.sim.process(scaler.run())
        return provisioner, scaler

    def test_maintains_minimum(self, system):
        provisioner, _ = self.make(system, min_instances=2)
        system.run(until=300)
        assert len(provisioner.live_instances) == 2

    def test_scales_out_under_backlog(self, system):
        provisioner, scaler = self.make(system)
        # Flood the task queue directly (cheaper than full submissions).
        for i in range(20):
            system.broker.publish("rai", {"fake": i})
        system.broker.channel("rai/tasks")
        system.run(until=400)
        assert len(provisioner.live_instances) > 1
        assert any(d["action"] == "scale-out" for d in scaler.decisions)

    def test_respects_max(self, system):
        provisioner, _ = self.make(system, max_instances=3)
        for i in range(100):
            system.broker.publish("rai", {"fake": i})
        system.broker.channel("rai/tasks")
        system.run(until=2000)
        assert len(provisioner.live_instances) <= 3

    def test_scales_in_when_idle(self, system):
        provisioner, scaler = self.make(system, min_instances=1,
                                        scale_in_cooldown=60.0)
        provisioner.launch_many(4, instance_type="p2.xlarge")
        system.run(until=3600)
        assert len(provisioner.live_instances) < 5
        assert any(d["action"] == "scale-in" for d in scaler.decisions)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_wait_signal_is_the_deployments_gauge(self, shards):
        """Regression: the signal was read off ``system.scheduler``, which
        a sharded deployment does not have — queue wait read 0.0 there, so
        scale-out-on-wait could never fire."""
        system = RaiSystem(seed=3, config=SystemConfig(shards=shards))
        provisioner = Provisioner(system)
        provisioner.launch_many(4, instance_type="p2.xlarge")
        scaler = Autoscaler(system, provisioner)
        clients = [system.new_client(team=f"team-{i}") for i in range(12)]
        for client in clients:
            client.stage_project(FILES)
        results = system.run_all(client.submit() for client in clients)
        assert all(result.succeeded for result in results)
        wait = scaler.signals()["wait_ewma"]
        assert wait == system.shards.max_wait_ewma() > 0
