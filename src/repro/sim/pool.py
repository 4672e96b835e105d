"""Freelist allocation for hot-path objects.

At giant-tier volume (millions of broker deliveries) object allocation
itself becomes a measurable kernel cost: every published message fans out
into per-channel :class:`~repro.broker.message.Message` copies that live
for exactly one delivery.  A :class:`FreeList` recycles those carcasses so
the steady state allocates nothing.

Recycling is strictly *opt-in*: an object re-enters the pool only when its
owner explicitly proves it is done with it (e.g.
``Channel.ack_release``).  Automatic recycling on ack would be unsound —
consumers legitimately read message bodies after acking.
"""

from __future__ import annotations

from typing import Any, List, Optional

#: Carcasses a pool retains; releases beyond this are dropped to the
#: garbage collector so a burst can't pin memory forever.
FREE_LIMIT = 4096


class FreeList:
    """A bounded LIFO cache of reusable objects.

    LIFO on purpose: the most recently released object is the most likely
    to still be CPU-cache-warm.  The pool never constructs objects itself
    — :meth:`acquire` returns ``None`` when empty and the caller falls
    back to a normal construction — so it stays type-agnostic and cannot
    hand out a half-initialised instance.
    """

    __slots__ = ("_free", "allocated", "reused", "recycled")

    def __init__(self):
        self._free: List[Any] = []
        #: Fresh constructions (acquire misses).
        self.allocated = 0
        #: Acquire hits served from the freelist.
        self.reused = 0
        #: Objects accepted back into the pool.
        self.recycled = 0

    def acquire(self) -> Optional[Any]:
        """Pop a recycled object, or ``None`` if the pool is empty."""
        free = self._free
        if free:
            self.reused += 1
            return free.pop()
        self.allocated += 1
        return None

    def release(self, obj: Any) -> None:
        """Return an object to the pool (dropped if the pool is full)."""
        free = self._free
        if len(free) < FREE_LIMIT:
            free.append(obj)
            self.recycled += 1
