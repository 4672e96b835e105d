"""Per-worker warm container pool.

Creating a fresh sandbox for every job charges the engine's create cost
(namespace setup, mount plumbing, cgroup wiring) on the submission hot
path.  The pool keeps a bounded number of *scrubbed* containers per image
and hands them to the next job instead — the "warm start" half of the
scheduler + pool latency attack.  Warm means ready: the reset runs in the
background from the moment a job returns its container, off the slot, so
a job that arrives after it finished waits for nothing and a job that
arrives sooner waits only for what is left of it.

Safety invariants:

- **Reset on return.**  A container is :meth:`~repro.container.container.
  Container.scrub`-bed the moment its job releases it: filesystem (with
  the job's ``/src`` and ``/build``), environment, and output hooks are
  dropped before the container is parked, and the entry carries the
  instant the reset completes (``ready_at``).  Acquisition reprovisions
  from the image template with the new job's mounts, so a container is
  never reused across teams (or even jobs) without a full reset, and
  never before ``ready_at`` without the job waiting out the remainder.
- **Tainted containers are never pooled.**  OOM-killed, timed-out, or
  already-destroyed containers go straight back to the engine for
  destruction.
- **Bounded and TTL-evicted.**  At most ``max_per_image`` containers park
  per image; entries idle past ``ttl_seconds`` on the simulation clock are
  destroyed at the next pool operation.
- **Crash-safe.**  :meth:`close` (wired to worker stop/crash) destroys
  every parked container and makes later releases destroy instead of
  park, so a dying worker leaks nothing into
  :attr:`~repro.container.runtime.ContainerRuntime.live_count`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.container.container import Container, ContainerState

#: Container states a released container may be parked from.
_REUSABLE_STATES = (ContainerState.RUNNING, ContainerState.EXITED,
                    ContainerState.CREATED)


@dataclass
class _Parked:
    container: Container
    parked_at: float
    #: When the background reset started at ``parked_at`` completes.
    ready_at: float


class WarmContainerPool:
    """A bounded, TTL-evicted pool of sanitized containers per image."""

    def __init__(self, runtime, clock: Callable[[], float],
                 max_per_image: int = 2,
                 ttl_seconds: float = 900.0,
                 create_seconds: float = 2.0,
                 reset_seconds: float = 0.2,
                 events=None, owner: Optional[str] = None, usage=None):
        if max_per_image < 0:
            raise ValueError("max_per_image must be >= 0")
        if create_seconds < 0 or reset_seconds < 0:
            raise ValueError("create/reset seconds must be >= 0")
        self.runtime = runtime
        self.clock = clock
        self.max_per_image = max_per_image
        self.ttl_seconds = ttl_seconds
        self.create_seconds = create_seconds
        self.reset_seconds = reset_seconds
        #: Optional :class:`~repro.obs.events.EventLog` + the owning
        #: worker's id, so fleet-wide pool churn reads as one stream.
        self.events = events
        self.owner = owner
        #: Optional :class:`~repro.obs.usage.UsageMeter`: warm-slot
        #: occupancy is billable — a hit charges the acquiring tenant
        #: the idle time it consumed; TTL evictions are overhead.
        self.usage = usage
        self._parked: Dict[str, Deque[_Parked]] = {}
        self._closed = False
        self.hits = 0
        self.misses = 0
        #: Hits handed out before ``ready_at``, and the seconds they waited.
        self.hits_waited = 0
        self.hit_wait_seconds = 0.0
        self.evicted_ttl = 0
        self.evicted_overflow = 0
        self.rejected_tainted = 0

    # -- state ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.max_per_image > 0 and not self._closed

    @property
    def pooled_count(self) -> int:
        return sum(len(q) for q in self._parked.values())

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- the job-facing surface ----------------------------------------

    def acquire(self, image_name: str, limits=None, mounts=None,
                gpu_device=None, on_output=None, usage_key=None
                ) -> Tuple[Container, bool, float]:
        """Hand out a container for ``image_name``.

        Returns ``(container, pool_hit, cost_seconds)``: the container
        (CREATED state, caller starts it), whether it came warm from the
        pool, and the simulated seconds the caller must charge for the
        acquisition: the engine create cost on a miss; on a hit whatever
        is left of the reset started when the container was parked,
        ``max(0, ready_at - now)`` — zero once it has sat idle longer
        than a reset, the whole reset (never more) when a saturated slot
        takes it back at once.  The oldest parked container is handed
        out, which is also the earliest ready.  ``usage_key`` is the
        tenant a warm hit's consumed slot time is metered against.
        """
        self.evict_expired()
        queue = self._parked.get(image_name)
        if self.enabled and queue:
            entry = queue.popleft()
            if not queue:
                del self._parked[image_name]
            now = self.clock()
            if self.usage is not None:
                self.usage.record("warm_slot_seconds", now - entry.parked_at,
                                  tenant=usage_key)
            container = entry.container
            container.recycle(limits=limits, mounts=mounts or [],
                              gpu_device=gpu_device, on_output=on_output)
            # min: ``(parked_at + reset) - now`` can round an ulp above the
            # reset itself, and a hit must never cost more than one.
            cost = max(0.0, min(entry.ready_at - now, self.reset_seconds))
            self.hits += 1
            if cost > 0:
                self.hits_waited += 1
                self.hit_wait_seconds += cost
            self._emit("pool.hit", image=image_name, cost=cost)
            return container, True, cost
        container = self.runtime.create_container(
            image_name, limits=limits, mounts=mounts,
            gpu_device=gpu_device, on_output=on_output)
        self.misses += 1
        self._emit("pool.miss", image=image_name, cost=self.create_seconds)
        return container, False, self.create_seconds

    def _emit(self, type: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(type, worker=self.owner, **fields)

    def release(self, container: Container) -> bool:
        """Return a container after its job; park it or destroy it.

        Returns True when the container was parked for reuse.
        """
        if container.state not in _REUSABLE_STATES:
            if container.state is not ContainerState.DESTROYED:
                self.rejected_tainted += 1
                self.runtime.destroy_container(container)
            return False
        if not self.enabled:
            self.runtime.destroy_container(container)
            return False
        image_name = getattr(container.image, "name", None)
        if image_name is None:
            self.runtime.destroy_container(container)
            return False
        queue = self._parked.setdefault(image_name, deque())
        if len(queue) >= self.max_per_image:
            self.evicted_overflow += 1
            self.runtime.destroy_container(container)
            return False
        container.scrub()
        now = self.clock()
        queue.append(_Parked(container, parked_at=now,
                             ready_at=now + self.reset_seconds))
        return True

    # -- eviction and shutdown -----------------------------------------

    def evict_expired(self) -> int:
        """Destroy parked containers idle past the TTL; returns count."""
        if self.ttl_seconds is None:
            return 0
        now = self.clock()
        evicted = 0
        for image_name in list(self._parked):
            queue = self._parked[image_name]
            while queue and now - queue[0].parked_at >= self.ttl_seconds:
                entry = queue.popleft()
                self._destroy_unclaimed(entry, now)
                self.evicted_ttl += 1
                evicted += 1
                self._emit("pool.evict", image=image_name, reason="ttl",
                           idle=now - entry.parked_at)
            if not queue:
                del self._parked[image_name]
        return evicted

    def _destroy_unclaimed(self, entry: _Parked, now: float) -> None:
        """Destroy a parked container no job claimed (TTL, stop, crash):
        its idle time is platform overhead, not tenant usage."""
        self.runtime.destroy_container(entry.container)
        if self.usage is not None:
            self.usage.record("warm_slot_seconds", now - entry.parked_at,
                              tenant=None)

    def drain(self) -> int:
        """Destroy every parked container, ready or mid-reset; returns
        count destroyed."""
        now = self.clock()
        drained = 0
        for queue in self._parked.values():
            for entry in queue:
                self._destroy_unclaimed(entry, now)
                drained += 1
        self._parked.clear()
        return drained

    def close(self) -> int:
        """Drain the pool and refuse future parking (worker shutdown or
        crash): in-flight jobs releasing after close destroy their
        containers instead of leaking them into a dead worker's pool."""
        self._closed = True
        return self.drain()

    # -- observability --------------------------------------------------

    def stats(self) -> dict:
        now = self.clock()
        pooled = self.pooled_count
        ready = sum(entry.ready_at <= now
                    for queue in self._parked.values() for entry in queue)
        return {
            "pooled": pooled,
            "ready": ready,
            "resetting": pooled - ready,
            "max_per_image": self.max_per_image,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate(), 4),
            "hits_waited": self.hits_waited,
            "hit_wait_seconds": round(self.hit_wait_seconds, 6),
            "evicted_ttl": self.evicted_ttl,
            "evicted_overflow": self.evicted_overflow,
            "rejected_tainted": self.rejected_tainted,
            "closed": self._closed,
        }
