"""Discrete-event simulation kernel.

Every RAI component — clients, the message broker, workers, the autoscaler,
and the synthetic student population — runs as a coroutine *process* on this
kernel.  The design follows the classic event-calendar model (and borrows
simpy's generator-based process API): a process is a Python generator that
``yield``\\ s :class:`~repro.sim.events.Event` objects and is resumed when
they fire.  Simulated time only advances between events, so a five-week
course with tens of thousands of submissions replays in a couple of seconds
of wall clock while preserving the exact interleavings a real deployment
would exhibit.

Public surface::

    sim = Simulator()
    def proc(sim):
        yield sim.timeout(3.0)
        return "done"
    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "done" and sim.now == 3.0
"""

from repro.sim.events import (
    PENDING,
    Event,
    Timeout,
    Condition,
    AllOf,
    AnyOf,
)
from repro.sim.kernel import Simulator, Process, PRIORITY_URGENT, PRIORITY_NORMAL
from repro.sim.resources import Resource, Store
from repro.sim.random import RandomStreams
from repro.sim.monitor import Monitor
from repro.errors import Interrupt, StopSimulation, SimulationError

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "Simulator",
    "Process",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "Resource",
    "Store",
    "RandomStreams",
    "Monitor",
    "Interrupt",
    "StopSimulation",
    "SimulationError",
]
