"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot future: it is *triggered* once with either a
value (``succeed``) or an exception (``fail``), after which the simulator
invokes its callbacks in scheduling order.  Processes are themselves events
(they trigger when their generator returns), which is what makes
``yield other_process`` compose naturally.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

#: Sentinel stored in :attr:`Event._value` until the event is triggered.
PENDING = object()

#: Priority for events that must run before same-time normal events
#: (used by interrupts so they preempt the interrupted process's own
#: resume).  Defined here — not in :mod:`repro.sim.kernel` — so the
#: :class:`Timeout` fast path can schedule without a circular import;
#: the kernel re-exports both names.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.kernel.Simulator`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    def __init__(self, sim):
        self.sim = sim
        #: Callables ``cb(event)`` invoked when the event is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._defused = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (``callbacks`` is then ``None``)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully and schedule its callbacks."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        If no process is waiting on the event when it is processed, the
        exception propagates out of :meth:`Simulator.run` (unless the
        event was defused) so that programming errors do not vanish
        silently.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def __repr__(self):
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay: float):
        # Timeouts are the single most-allocated event type (every think
        # time, service time, and caretaker tick is one), so this inlines
        # ``Event.__init__`` + ``Simulator._schedule`` into one flat body:
        # a timeout is born triggered and scheduled, so the generic
        # re-schedule guard and callback indirection buy nothing here.
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._scheduled = True
        self._defused = False
        self.delay = delay = float(delay)
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now + delay, PRIORITY_NORMAL, seq, self))

    def __repr__(self):
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Condition(Event):
    """Composite event over several sub-events.

    ``evaluate(events, n_triggered)`` decides when the condition is met.
    The condition's value is a dict mapping each *triggered* sub-event to
    its value, preserving creation order (like simpy's ConditionValue).
    """

    __slots__ = ("events", "_evaluate", "_fired")

    def __init__(self, sim, evaluate, events):
        super().__init__(sim)
        self.events = list(events)
        self._evaluate = evaluate
        #: Sub-events whose callbacks have fired, in firing order.  (An
        #: event like Timeout is "triggered" from creation, so membership
        #: here — not ``triggered`` — defines the condition's value.)
        self._fired: List[Event] = []
        for evt in self.events:
            if evt.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        if not self.events:
            self.succeed({})
            return
        for evt in self.events:
            if evt.processed:
                self._check(evt)
            else:
                evt.callbacks.append(self._check)

    def _collect_values(self) -> dict:
        return {e: e._value for e in self._fired}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._fired.append(event)
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self.events, len(self._fired)):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events, count) -> bool:
        return count == len(events)

    @staticmethod
    def any_events(events, count) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Condition that fires once *all* sub-events have fired."""

    __slots__ = ()

    def __init__(self, sim, events):
        super().__init__(sim, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that fires once *any* sub-event has fired."""

    __slots__ = ()

    def __init__(self, sim, events):
        super().__init__(sim, Condition.any_events, events)
