"""Unit tests for event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Event, Simulator, Timeout


def fires(sim, delay, value):
    """An event that fires with ``value`` ``delay`` seconds from now."""
    evt = Event(sim)
    sim.timeout(delay).callbacks.append(lambda _: evt.succeed(value))
    return evt


class TestEvent:
    def test_starts_untriggered(self, sim):
        evt = Event(sim)
        assert not evt.triggered
        assert not evt.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            Event(sim).value

    def test_ok_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            Event(sim).ok

    def test_succeed_sets_value(self, sim):
        evt = Event(sim).succeed(42)
        assert evt.triggered
        assert evt.ok
        assert evt.value == 42

    def test_double_succeed_raises(self, sim):
        evt = Event(sim).succeed()
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            Event(sim).fail("not an exception")

    def test_fail_carries_exception(self, sim):
        exc = ValueError("boom")
        evt = Event(sim).fail(exc)
        assert evt.triggered
        assert not evt.ok
        assert evt.value is exc

    def test_unhandled_failure_propagates_from_run(self, sim):
        evt = Event(sim)
        evt.fail(RuntimeError("lost"))
        with pytest.raises(RuntimeError, match="lost"):
            sim.run()

    def test_callbacks_run_on_processing(self, sim):
        seen = []
        evt = Event(sim)
        evt.callbacks.append(lambda e: seen.append(e.value))
        evt.succeed("hello")
        sim.run()
        assert seen == ["hello"]
        assert evt.processed


class TestTimeout:
    def test_fires_at_delay(self, sim):
        t = sim.timeout(5.0)
        assert sim.run(until=t) is None
        assert sim.now == 5.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_zero_delay_fires_immediately(self, sim):
        t = sim.timeout(0)
        sim.run(until=t)
        assert sim.now == 0.0

    def test_ordering_is_deterministic(self, sim):
        order = []
        for tag in ("a", "b", "c"):
            evt = sim.timeout(1.0)
            evt.callbacks.append(lambda e, tag=tag: order.append(tag))
        sim.run()
        assert order == ["a", "b", "c"]  # FIFO among same-time events


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        t1, t2 = fires(sim, 1, "x"), fires(sim, 3, "y")
        cond = sim.all_of([t1, t2])
        sim.run(until=cond)
        assert sim.now == 3.0
        assert list(cond.value.values()) == ["x", "y"]

    def test_any_of_fires_on_first(self, sim):
        t1, t2 = fires(sim, 1, "x"), fires(sim, 3, "y")
        cond = sim.any_of([t1, t2])
        value = sim.run(until=cond)
        assert sim.now == 1.0
        assert value == {t1: "x"}

    def test_empty_all_of_fires_immediately(self, sim):
        cond = AllOf(sim, [])
        assert cond.triggered

    def test_empty_any_of_fires_immediately(self, sim):
        cond = AnyOf(sim, [])
        assert cond.triggered

    def test_condition_failure_propagates(self, sim):
        evt = Event(sim)
        cond = sim.all_of([evt, sim.timeout(10)])

        def proc(sim):
            with pytest.raises(ValueError):
                yield cond
            return "caught"

        p = sim.process(proc(sim))
        evt.fail(ValueError("inner"))
        assert sim.run(until=p) == "caught"

    def test_cross_simulator_condition_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.all_of([other.timeout(1)])

    def test_already_processed_events_counted(self, sim):
        t1 = sim.timeout(1)
        sim.run(until=t1)
        cond = sim.all_of([t1, sim.timeout(1)])
        sim.run(until=cond)
        assert sim.now == 2.0
