"""Queued resources for the simulation kernel.

Two primitives cover everything the RAI model needs:

- :class:`Resource` — ``capacity`` interchangeable slots with a FIFO wait
  queue (worker job slots, GPU devices).
- :class:`Store` — an unbounded FIFO of Python objects with blocking
  ``get`` (message-broker channels, job queues).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, List

from repro.sim.events import PENDING, PRIORITY_NORMAL, Event


class Request(Event):
    """Pending acquisition of one slot of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        resource._request(self)

    # context-manager sugar: ``with res.request() as req: yield req``
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.resource.release(self)
        return False


class Resource:
    """``capacity`` identical slots with FIFO granting."""

    __slots__ = ("sim", "capacity", "users", "_waiting")

    def __init__(self, sim, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.users: List[Request] = []
        self._waiting: List[Request] = []

    def request(self) -> Request:
        """Return an event that fires once a slot is granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a previously granted slot (idempotent for safety)."""
        if request in self.users:
            self.users.remove(request)
            self._grant()
        elif request in self._waiting:
            self._waiting.remove(request)

    # -- internals ----------------------------------------------------------

    def _request(self, request: Request) -> None:
        self._waiting.append(request)
        self._grant()

    def _grant(self) -> None:
        while self._waiting and len(self.users) < self.capacity:
            nxt = self._waiting.pop(0)
            self.users.append(nxt)
            nxt.succeed(nxt)


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.sim)
        store._gets.append(self)
        store._dispatch()


class Store:
    """FIFO store of items with blocking ``get``."""

    __slots__ = ("sim", "items", "_gets")

    def __init__(self, sim):
        self.sim = sim
        self.items: Deque[Any] = deque()
        self._gets: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Enqueue ``item``; a waiting get takes it at once."""
        self.items.append(item)
        if self._gets:
            self._dispatch()

    def get(self) -> StoreGet:
        """Return an event that fires with the next item."""
        return StoreGet(self)

    def _pop_next(self) -> Any:
        """Remove and return the next item for a get.

        FIFO by default; subclasses (e.g. a scheduler-backed broker
        channel) may override to reorder dequeue without touching the
        event machinery.  Only called when ``self.items`` is non-empty.
        """
        return self.items.popleft()

    def _dispatch(self) -> None:
        # ``succeed`` only schedules kernel events — callbacks run later,
        # from the kernel loop — so no new puts or gets can arrive while
        # this method runs.  That licenses a single pass that pairs the
        # oldest waiting gets with the oldest items.
        items = self.items
        gets = self._gets
        sim = self.sim
        queue = sim._queue
        # ``evt.succeed(value)`` inlined below: these events were created
        # un-triggered moments ago and are only ever triggered here, so
        # the already-triggered guard, the re-schedule guard, and two
        # Python calls per delivery are pure overhead at broker volume.
        while gets and items:
            get = gets.popleft()
            if get._value is not PENDING:  # cancelled/raced
                continue
            matched = self._pop_next()
            get._ok = True
            get._value = matched
            get._scheduled = True
            sim._seq = seq = sim._seq + 1
            heappush(queue, (sim._now, PRIORITY_NORMAL, seq, get))
