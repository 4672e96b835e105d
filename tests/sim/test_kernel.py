"""Unit tests for the simulator core and processes."""

import random

import pytest

from repro.errors import Interrupt, SimulationError
from repro.sim import Simulator


class TestSimulatorClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_time_advances_only_with_events(self, sim):
        sim.timeout(7.5)
        sim.run()
        assert sim.now == 7.5

    def test_run_until_time_stops_exactly(self, sim):
        def ticker(sim):
            while True:
                yield sim.timeout(1)

        sim.process(ticker(sim))
        sim.run(until=10.5)
        assert sim.now == 10.5

    def test_run_until_past_time_rejected(self, sim):
        sim.timeout(5)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_run_until_time_with_no_events_advances_clock(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0


class TestProcess:
    def test_return_value(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            return "result"

        assert sim.run(until=sim.process(proc(sim))) == "result"

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_process_is_alive_until_done(self, sim):
        def proc(sim):
            yield sim.timeout(5)

        p = sim.process(proc(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_exception_propagates_to_waiter(self, sim):
        def bad(sim):
            yield sim.timeout(1)
            raise KeyError("inner")

        def waiter(sim, target):
            try:
                yield target
            except KeyError:
                return "handled"

        target = sim.process(bad(sim))
        p = sim.process(waiter(sim, target))
        assert sim.run(until=p) == "handled"

    def test_unhandled_process_exception_raises_from_run(self, sim):
        def bad(sim):
            yield sim.timeout(1)
            raise KeyError("unhandled")

        sim.process(bad(sim))
        with pytest.raises(KeyError):
            sim.run()

    def test_yield_non_event_fails_process(self, sim):
        def bad(sim):
            yield 42

        sim.process(bad(sim))
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()

    def test_yielding_completed_process_returns_instantly(self, sim):
        def quick(sim):
            yield sim.timeout(1)
            return "v"

        def waiter(sim, target):
            yield sim.timeout(10)
            value = yield target    # target long done
            return value

        target = sim.process(quick(sim))
        p = sim.process(waiter(sim, target))
        assert sim.run(until=p) == "v"
        assert sim.now == 10.0

    def test_nested_processes(self, sim):
        def inner(sim, n):
            yield sim.timeout(n)
            return n * 2

        def outer(sim):
            a = yield sim.process(inner(sim, 1))
            b = yield sim.process(inner(sim, 2))
            return a + b

        assert sim.run(until=sim.process(outer(sim))) == 6
        assert sim.now == 3.0


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        def sleeper(sim):
            try:
                yield sim.timeout(100)
            except Interrupt as i:
                return ("interrupted", i.cause, sim.now)

        p = sim.process(sleeper(sim))

        def killer(sim):
            yield sim.timeout(5)
            p.interrupt("reason")

        sim.process(killer(sim))
        assert sim.run(until=p) == ("interrupted", "reason", 5.0)

    def test_interrupt_dead_process_raises(self, sim):
        def quick(sim):
            yield sim.timeout(1)

        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_self_interrupt_rejected(self, sim):
        def proc(sim):
            me = sim.active_process
            with pytest.raises(SimulationError):
                me.interrupt()
            yield sim.timeout(1)
            return "done"

        assert sim.run(until=sim.process(proc(sim))) == "done"

    def test_interrupted_process_can_continue(self, sim):
        def resilient(sim):
            total = 0.0
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            yield sim.timeout(3)
            return sim.now

        p = sim.process(resilient(sim))

        def killer(sim):
            yield sim.timeout(2)
            p.interrupt()

        sim.process(killer(sim))
        assert sim.run(until=p) == 5.0

    def test_interrupt_detaches_from_target(self, sim):
        """The abandoned timeout firing later must not resume the process."""
        log = []

        def proc(sim):
            try:
                yield sim.timeout(10)
                log.append("timeout fired in proc")
            except Interrupt:
                log.append("interrupted")
            yield sim.timeout(50)
            log.append("second wait done")

        p = sim.process(proc(sim))

        def killer(sim):
            yield sim.timeout(1)
            p.interrupt()

        sim.process(killer(sim))
        sim.run()
        assert log == ["interrupted", "second wait done"]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def trace_run():
            sim = Simulator()
            log = []

            def worker(sim, i):
                for k in range(3):
                    yield sim.timeout(0.5 * (i + 1))
                    log.append((round(sim.now, 3), i, k))

            for i in range(4):
                sim.process(worker(sim, i))
            sim.run()
            return log

        assert trace_run() == trace_run()


class TestEventCount:
    def test_timeout_cascade_schedules_its_structural_count(self, sim):
        """One bootstrap per process, one timeout per yield and one
        completion per process: the kernel schedules nothing else."""
        rng = random.Random(7)
        n_procs, per_proc = 100, 50

        def cascade(delays):
            for delay in delays:
                yield sim.timeout(delay)

        for _ in range(n_procs):
            sim.process(cascade([rng.expovariate(1.0)
                                 for _ in range(per_proc)]))
        sim.run()
        assert sim.scheduled_events == n_procs * per_proc + 2 * n_procs
