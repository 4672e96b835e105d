"""The simulator core: event calendar and generator-based processes."""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from types import GeneratorType
from typing import Any, Callable, Generator, Optional

from repro.errors import Interrupt, SimulationError, StopSimulation
from repro.sim.events import (PENDING, PRIORITY_NORMAL, PRIORITY_URGENT,
                              AllOf, AnyOf, Event, Timeout)


class Simulator:
    """A deterministic discrete-event simulator.

    Events are totally ordered by ``(time, priority, sequence_number)``, so
    two runs with identical inputs produce identical traces — the property
    all benchmark reproducibility in this package rests on.  The clock
    starts at 0 (simulated seconds).
    """

    __slots__ = ("_now", "_queue", "_seq", "_active_process", "timeout")

    def __init__(self):
        self._now = 0.0
        self._queue: list = []  # heap of (time, priority, seq, event)
        #: Monotonic tiebreak sequence — a plain int, incremented inline on
        #: the scheduling hot paths (an ``itertools.count`` costs a C call
        #: per event and cannot be read back for throughput accounting).
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: ``sim.timeout(delay)`` — the most-called factory, so
        #: it is a C-level ``partial`` rather than a Python method wrapper.
        self.timeout = partial(Timeout, self)

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional["Process"]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def scheduled_events(self) -> int:
        """Total events ever scheduled — the kernel-throughput numerator."""
        return self._seq

    # -- event factories ----------------------------------------------------

    def process(self, generator: Generator) -> "Process":
        """Start a new process from a generator function's generator."""
        return Process(self, generator)

    def every(self, interval: float, fn: Callable[[], Any]) -> Generator:
        """A perpetual process body calling ``fn()`` every ``interval``
        simulated seconds, the first call one ``interval`` from its start.

        Start it with :meth:`process`; a simulation running one never runs
        out of events, so drive it with ``run(until=...)``.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        return self._every(interval, fn)

    def _every(self, interval: float, fn: Callable[[], Any]) -> Generator:
        while True:
            yield self.timeout(interval)
            fn()

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = PRIORITY_NORMAL) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now + delay, priority, seq, event))

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (an event, a time, or exhaustion).

        - ``until is None``: run until no events remain.
        - ``until`` is a number: run until simulated time reaches it.
        - ``until`` is an :class:`Event`: run until it is processed and
          return its value (raising its exception if it failed).
        """
        if until is None:
            stop_event = None
            horizon = None
        elif isinstance(until, Event):
            stop_event = until
            horizon = None
            if until.processed:
                if until.ok:
                    return until.value
                raise until.value
            until.callbacks.append(_stop_simulation)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until ({horizon}) must not be before now ({self._now})")
            stop_event = None

        # The hot loop, specialised per run mode: at benchmark scale a
        # per-event method call, an empty-schedule control-flow exception,
        # and even a per-event ``horizon is not None`` test are all
        # measurable.  Each loop pops first and reads the timestamp off the
        # popped entry — peek-then-pop touches the heap root twice per event.
        queue = self._queue
        pop = heappop
        try:
            if horizon is None:
                while True:
                    try:
                        entry = pop(queue)
                    except IndexError:
                        break
                    self._now = entry[0]
                    event = entry[3]
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        # An unhandled failure: surface it, don't lose it.
                        raise event._value
                if stop_event is not None:
                    raise SimulationError(
                        "ran out of events before the awaited event "
                        "triggered") from None
                return None
            while queue and queue[0][0] <= horizon:
                entry = pop(queue)
                self._now = entry[0]
                event = entry[3]
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            self._now = horizon
            return None
        except StopSimulation as stop:
            event = stop.value
            if event.ok:
                return event.value
            raise event.value


def _stop_simulation(event: Event) -> None:
    if not event._ok:
        event._defused = True
    raise StopSimulation(event)


class Process(Event):
    """A coroutine executing in simulated time.

    A process wraps a generator that yields :class:`Event` objects; the
    kernel resumes the generator with each event's value (or throws the
    event's exception into it).  The process itself is an event that
    triggers when the generator returns, carrying its return value.
    """

    __slots__ = ("_generator", "_target", "name", "_resume_cb")

    def __init__(self, sim: Simulator, generator: Generator):
        if not isinstance(generator, GeneratorType):
            raise TypeError(
                f"process() requires a generator, got {type(generator).__name__}")
        super().__init__(sim)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = generator.__name__
        #: The bound resume callback, created exactly once.  ``self._resume``
        #: mints a fresh bound-method object per access, which costs an
        #: allocation per yield *and* defeats ``list.remove``'s identity
        #: fast path when detaching from an abandoned target.
        self._resume_cb = self._resume
        # Bootstrap: resume once at the current time.
        init = Event(sim)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume_cb)
        sim._schedule(init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`~repro.errors.Interrupt` into the process.

        The interrupt is delivered as an urgent event so that it preempts a
        pending resume scheduled for the same simulated instant.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume_cb)
        self.sim._schedule(event, priority=PRIORITY_URGENT)

    # -- internals ----------------------------------------------------------

    def _resume(self, event: Event) -> None:
        # This is the kernel's innermost function — one call per process
        # wakeup — so state checks read slots directly instead of going
        # through the ``triggered``/``processed`` property descriptors,
        # and loop-invariant lookups are hoisted into locals.
        if self._value is not PENDING:
            # Process already ended (e.g. interrupt raced with completion).
            return
        sim = self.sim
        gen = self._generator
        resume_cb = self._resume_cb
        sim._active_process = self

        while True:
            # Detach from whatever we were waiting on.  In the common case
            # the fired event *is* the target (its callbacks are already
            # consumed), so an identity test replaces any list traversal;
            # only an abandoned wait (e.g. an interrupt preempting a parked
            # process) pays for a one-pass ``remove`` — which hits the
            # identity fast path on the cached bound method, no membership
            # pre-scan.
            target = self._target
            if target is not None:
                self._target = None
                if target is not event:
                    callbacks = target.callbacks
                    if callbacks is not None:
                        try:
                            callbacks.remove(resume_cb)
                        except ValueError:
                            pass

            try:
                if event._ok:
                    target = gen.send(event._value)
                else:
                    event._defused = True
                    target = gen.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                sim._schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                sim._schedule(self)
                break

            # Validate the yield by touching ``target.sim`` — for real
            # events the load is needed anyway for the cross-simulator
            # check, and a non-event raises AttributeError at zero cost to
            # the hot path (CPython 3.11 try/except is free until it fires).
            try:
                if target.sim is not sim:
                    raise SimulationError(
                        "yielded event belongs to another simulator")
            except AttributeError:
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}")
                try:
                    gen.throw(exc)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                except BaseException as err:
                    self._ok = False
                    self._value = err
                sim._schedule(self)
                break

            callbacks = target.callbacks
            if callbacks is None:
                # Already processed: loop around immediately with its outcome.
                event = target
                continue

            self._target = target
            callbacks.append(resume_cb)
            break

        sim._active_process = None

    def __repr__(self):
        state = "alive" if self.is_alive else ("ok" if self._ok else "failed")
        return f"<Process {self.name!r} {state}>"
