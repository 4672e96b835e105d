"""Unit tests for fault-plan validation and the injector hooks."""

import pytest

from repro.core.config import SystemConfig
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.errors import TransientStorageError
from repro.faults import (
    BrokerFault,
    ContainerKillFault,
    FaultPlan,
    StorageFault,
    WorkerCrashFault,
)

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


class TestPlanValidation:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert "empty" in plan.describe()

    def test_lists_coerced_to_tuples(self):
        plan = FaultPlan(storage_faults=[StorageFault(failures_per_key=1)])
        assert isinstance(plan.storage_faults, tuple)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            WorkerCrashFault(window=(50.0, 10.0))
        with pytest.raises(ValueError):
            WorkerCrashFault(mode="explode")
        with pytest.raises(ValueError):
            StorageFault(op="delete")
        with pytest.raises(ValueError):
            StorageFault(rate=1.5)
        with pytest.raises(ValueError):
            BrokerFault(drop_rate=-0.1)
        with pytest.raises(ValueError):
            BrokerFault(delay_range=(5.0, 1.0))
        with pytest.raises(ValueError):
            ContainerKillFault(rate=2.0)

    def test_describe_mentions_each_kind(self):
        plan = FaultPlan(
            worker_crashes=(WorkerCrashFault(window=(0.0, 1.0)),),
            storage_faults=(StorageFault(failures_per_key=1),),
            broker_faults=(BrokerFault(drop_rate=0.1),),
            container_kills=(ContainerKillFault(rate=0.1),),
        )
        text = plan.describe()
        for word in ("crash", "storage", "broker", "container"):
            assert word in text


class TestStorageHook:
    def test_first_n_calls_per_key_fail_then_succeed(self):
        system = RaiSystem(seed=1)
        system.storage.create_bucket("b")
        system.storage.put_object("b", "k", b"data")
        plan = FaultPlan(storage_faults=(
            StorageFault(op="get", failures_per_key=2),))
        injector = system.start_fault_plan(plan)

        for _ in range(2):
            with pytest.raises(TransientStorageError):
                system.storage.get_object("b", "k")
        assert system.storage.get_object("b", "k").data == b"data"
        # Puts are unaffected by a get-only fault.
        system.storage.put_object("b", "k2", b"x")
        assert injector.injected == 2
        assert system.monitor.counters.get("faults_storage_get") == 2

    def test_bucket_scoping(self):
        system = RaiSystem(seed=1)
        system.storage.create_bucket("a")
        system.storage.create_bucket("b")
        system.storage.put_object("a", "k", b"1")
        system.storage.put_object("b", "k", b"2")
        system.start_fault_plan(FaultPlan(storage_faults=(
            StorageFault(op="get", failures_per_key=1, bucket="a"),)))
        assert system.storage.get_object("b", "k").data == b"2"
        with pytest.raises(TransientStorageError):
            system.storage.get_object("a", "k")

    def test_stop_restores_storage(self):
        system = RaiSystem(seed=1)
        system.storage.create_bucket("b")
        system.storage.put_object("b", "k", b"data")
        injector = system.start_fault_plan(FaultPlan(storage_faults=(
            StorageFault(op="get", failures_per_key=99),)))
        with pytest.raises(TransientStorageError):
            system.storage.get_object("b", "k")
        injector.stop()
        assert system.storage.fault_hook is None
        assert system.storage.get_object("b", "k").data == b"data"


class TestBrokerHook:
    def test_drop_rate_one_drops_everything(self):
        system = RaiSystem(seed=1)
        injector = system.start_fault_plan(FaultPlan(broker_faults=(
            BrokerFault(topic="rai", drop_rate=1.0),)))
        assert system.broker.publish("rai", {"x": 1}) is None
        assert system.queue_depth() == 0
        # Other topics are untouched.
        assert system.broker.publish("other", {"x": 1}) is not None
        injector.stop()
        assert system.broker.publish("rai", {"x": 2}) is not None

    def test_delay_defers_delivery(self):
        system = RaiSystem(seed=1)
        system.start_fault_plan(FaultPlan(broker_faults=(
            BrokerFault(topic="rai", delay_rate=1.0,
                        delay_range=(10.0, 10.0)),)))
        system.broker.publish("rai", {"x": 1})
        assert system.queue_depth() == 0
        system.run(until=11.0)
        assert system.queue_depth() == 1
        assert system.monitor.counters.get("faults_broker_delay") == 1

    @pytest.mark.parametrize("shards", [1, 4])
    def test_default_topic_is_every_task_topic(self, shards):
        """Regression: the default meant the literal topic ``rai``, which
        a multi-partition plane never publishes to — nothing was dropped."""
        system = RaiSystem.standard(num_workers=2, seed=1,
                                    config=SystemConfig(shards=shards))
        system.start_fault_plan(FaultPlan(broker_faults=(
            BrokerFault(drop_rate=1.0),)))
        clients = [system.new_client(team=f"team{i:02d}") for i in range(8)]
        for client in clients:
            client.stage_project(FILES)
        results = system.run_all(client.submit(wait_timeout=60.0)
                                 for client in clients)
        assert [r.status for r in results] == [JobStatus.TIMEOUT] * 8
        assert system.monitor.counters.get("faults_broker_drop") == 8
        assert system.queue_depth() == 0

    def test_same_seed_same_drop_decisions(self):
        def decisions(seed):
            system = RaiSystem(seed=seed)
            system.start_fault_plan(FaultPlan(broker_faults=(
                BrokerFault(topic="rai", drop_rate=0.5),)))
            return [system.broker.publish("rai", {"i": i}) is None
                    for i in range(32)]

        assert decisions(42) == decisions(42)
        assert decisions(42) != decisions(43)


class TestWorkerCrashProcess:
    def test_targeted_crash_fires_in_window(self):
        system = RaiSystem.standard(num_workers=2, seed=5)
        victim = system.workers[0]
        system.start_fault_plan(FaultPlan(worker_crashes=(
            WorkerCrashFault(window=(5.0, 10.0), worker_id=victim.id),)))
        system.run(until=20.0)
        assert not victim.is_running
        assert victim._crashed
        assert system.workers[1].is_running
        events = system.monitor.events_of("fault_injected")
        assert any(f["kind"] == "worker_crash" and f["worker"] == victim.id
                   for _, f in events)
        (t, _), = events
        assert 5.0 <= t <= 10.0

    def test_restart_after_adds_replacement(self):
        system = RaiSystem.standard(num_workers=1, seed=5)
        system.start_fault_plan(FaultPlan(worker_crashes=(
            WorkerCrashFault(window=(1.0, 2.0), restart_after=30.0),)))
        system.run(until=60.0)
        assert len(system.workers) == 2
        assert len(system.running_workers) == 1

    def test_stop_mode_uses_graceful_path(self):
        system = RaiSystem.standard(num_workers=1, seed=5)
        victim = system.workers[0]
        system.start_fault_plan(FaultPlan(worker_crashes=(
            WorkerCrashFault(window=(1.0, 2.0), worker_id=victim.id,
                             mode="stop"),)))
        system.run(until=10.0)
        assert not victim.is_running
        assert not victim._crashed
