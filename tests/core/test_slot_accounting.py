"""Per-slot live-time accounting behind ``RaiWorker.utilization``.

The old denominator was ``max_concurrent_jobs * uptime`` — wrong the
moment the worker stops: a half-busy worker could read as nearly idle and
starve the autoscaler's occupancy signal.
The denominator now integrates only the seconds each slot actually
existed.
"""

import pytest

from repro.core.config import WorkerConfig
from repro.core.system import RaiSystem
from tests.golden import deployment

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def make_system(slots: int = 1) -> RaiSystem:
    return deployment(
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

    def test_interactive_executor_not_a_slot(self):
        system = deployment(
            num_workers=1, seed=31,
            worker_config=WorkerConfig(max_concurrent_jobs=2,
                                       enable_interactive=True))
        assert system.workers[0].slot_count == 2
