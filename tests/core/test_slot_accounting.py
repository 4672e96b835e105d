"""Per-slot live-time accounting behind ``RaiWorker.utilization``.

The old denominator was ``max_concurrent_jobs * uptime`` — wrong the
moment slots are added mid-run or the worker stops: a half-busy worker
could read as nearly idle and starve the autoscaler's occupancy signal.
The denominator now integrates only the seconds each slot actually
existed.
"""

import pytest

from repro.core.config import WorkerConfig
from repro.core.system import RaiSystem
from repro.core.worker import COURSE_IMAGE

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def make_system(slots: int = 1) -> RaiSystem:
    return RaiSystem.standard(
        num_workers=1, seed=31,
        worker_config=WorkerConfig(max_concurrent_jobs=slots,
                                   enable_interactive=False))


def advance(system, seconds: float) -> None:
    def waiter(sim):
        yield sim.timeout(seconds)

    system.run(system.sim.process(waiter(system.sim)))


class TestSlotSeconds:
    def test_initial_slots_accrue_from_start(self):
        system = make_system(slots=2)
        worker = system.workers[0]
        advance(system, 100.0)
        assert worker.slot_count == 2
        assert worker.slot_seconds() == pytest.approx(200.0)

    def test_slots_added_mid_run_accrue_from_their_birth(self):
        system = make_system(slots=1)
        worker = system.workers[0]
        advance(system, 100.0)
        worker.add_slots(1)
        advance(system, 50.0)
        # 150s for the original slot + 50s for the late one, not 300s.
        assert worker.slot_count == 2
        assert worker.slot_seconds() == pytest.approx(200.0)

    def test_stop_freezes_the_denominator(self):
        system = make_system(slots=2)
        worker = system.workers[0]
        advance(system, 100.0)
        worker.stop()
        frozen = worker.slot_seconds()
        assert frozen == pytest.approx(200.0)
        advance(system, 500.0)
        assert worker.slot_seconds() == frozen
        assert worker.slot_count == 0

    def test_added_slot_brings_its_share_of_the_warm_pool(self):
        """A slot added once the boot pull is done raises the pool's bound
        by ``warm_pool_size`` and parks that many filled containers, each
        ready one create later; its slot time accrues as any slot's."""
        system = make_system(slots=1)
        worker = system.workers[0]
        pool, depth = worker.pool, worker.config.warm_pool_size
        advance(system, 100.0)
        assert (pool.max_per_image, pool.filled) == (depth, depth)
        worker.add_slots(1)
        assert pool.max_per_image == 2 * depth
        advance(system, 0.5)
        assert pool.filled == pool.pooled_count == 2 * depth
        fresh = [entry for entry in pool._parked[COURSE_IMAGE]
                 if entry.parked_at == 100.0]
        create = worker.config.container_create_seconds
        assert [entry.ready_at for entry in fresh] == [100.0 + create] * depth
        assert pool.stats()["resetting"] == depth
        assert worker.slot_seconds() == pytest.approx(100.5 + 0.5)
        assert worker.utilization() == 0.0

    def test_add_slots_validation(self):
        system = make_system()
        worker = system.workers[0]
        with pytest.raises(ValueError):
            worker.add_slots(0)
        worker.stop()
        with pytest.raises(RuntimeError):
            worker.add_slots(1)


class TestUtilization:
    def test_idle_worker_reads_zero(self):
        system = make_system(slots=2)
        advance(system, 50.0)
        assert system.workers[0].utilization() == 0.0

    def test_denominator_is_slot_time_not_uptime(self):
        """One busy slot out of two for the whole run reads ~50%, and the
        same busy seconds over one slot read twice that."""
        system = make_system(slots=2)
        worker = system.workers[0]
        client = system.new_client(team="t")
        client.stage_project(FILES)
        system.run(client.submit())
        busy = worker.busy_seconds
        assert busy > 0
        assert worker.utilization() == pytest.approx(
            busy / worker.slot_seconds())
        assert worker.slot_seconds() == pytest.approx(2 * system.sim.now)

    def test_late_slot_does_not_dilute_utilization(self):
        """Adding a slot just before reading utilization barely moves it,
        because the new slot has existed for ~no time."""
        system = make_system(slots=1)
        worker = system.workers[0]
        client = system.new_client(team="t")
        client.stage_project(FILES)
        system.run(client.submit())
        before = worker.utilization()
        worker.add_slots(3)
        after = worker.utilization()
        assert after == pytest.approx(before, rel=1e-6)

    def test_interactive_executor_not_a_slot(self):
        system = RaiSystem.standard(
            num_workers=1, seed=31,
            worker_config=WorkerConfig(max_concurrent_jobs=2,
                                       enable_interactive=True))
        assert system.workers[0].slot_count == 2
