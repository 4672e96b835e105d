"""Per-worker warm container pool.

Creating a fresh sandbox for every job charges the engine's create cost
(namespace setup, mount plumbing, cgroup wiring) on the submission hot
path.  The pool keeps a bounded number of *scrubbed* containers per image
and hands them to the next job instead — the "warm start" half of the
scheduler + pool latency attack.  Warm means ready: every parked entry
carries the instant it is ready (``ready_at``) and what making it ready
costs (its charge), and a job that takes it pays ``max(0, ready_at -
now)``, never more than that charge.  Entries arrive two ways, through
one park path:

- **Returned.**  A job's container is reset in the background from the
  moment the job releases it, off the slot (charge: the reset), so a job
  that arrives after the reset waits for nothing and one that arrives
  sooner waits only for what is left of it.
- **Filled.**  A worker starting up parks the whole bound for its course
  image (:meth:`fill`), ready once the image pull it started and a create
  are done (charge: the pull remainder plus the create), so no first job
  on a slot pays them from its own claim.

A hit takes the oldest parked entry, which is also the one ready
soonest: a returned entry is ready a constant reset after it was parked,
and the fill happens at a worker's first instant, so any container a job
returns (having waited for the same pull and a create) is ready after
every filled one.  Parked order is ready order.

Safety invariants:

- **Reset on return.**  A container is :meth:`~repro.container.container.
  Container.scrub`-bed the moment it is parked: filesystem (with the
  job's ``/src`` and ``/build``), environment, and output hooks are
  dropped.  Acquisition reprovisions from the image template with the new
  job's mounts, so a container is never reused across teams (or even
  jobs) without a full reset, and never before ``ready_at`` without the
  job waiting out the remainder.
- **Tainted containers are never pooled.**  OOM-killed, timed-out, or
  already-destroyed containers go straight back to the engine for
  destruction.
- **Bounded and TTL-evicted.**  At most ``max_per_image`` containers park
  per image — a worker sets it to its per-slot depth times its live slots,
  so each busy slot has one container resetting while its job runs on
  another; entries idle past :data:`TTL_SECONDS` on the simulation clock
  are destroyed at the next pool operation.
- **Metered once.**  A hit books the seconds an entry sat parked as
  ``warm_slot_seconds`` against the acquiring tenant — unless the entry
  was filled, whose wait for its first job is platform overhead, as is
  every entry's time when TTL, :meth:`drain` or :meth:`close` ends it.
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
from repro.container.runtime import Pull
from repro.obs.events import EventType

#: Engine cost of creating a fresh container (namespace + cgroup + mount
#: setup): what a pool miss pays at acquire time.
CREATE_SECONDS = 2.0
#: Idle time after which a parked container is destroyed.
TTL_SECONDS = 900.0

#: Container states a released container may be parked from.
_REUSABLE_STATES = (ContainerState.RUNNING, ContainerState.EXITED,
                    ContainerState.CREATED)


@dataclass
class _Parked:
    container: Container
    parked_at: float
    #: When the work started at ``parked_at`` (a reset, or a pull and a
    #: create) completes.
    ready_at: float
    #: The most a hit can cost: ``ready_at - parked_at``, held exactly
    #: (``(parked_at + reset) - now`` can round an ulp above the reset).
    charge: float
    #: Parked by :meth:`WarmContainerPool.fill`, not returned by a job.
    filled: bool = False


class WarmContainerPool:
    """A bounded, TTL-evicted pool of sanitized containers per image."""

    def __init__(self, runtime, clock: Callable[[], float],
                 max_per_image: int = 2,
                 reset_seconds: float = 0.2,
                 events=None, owner: Optional[str] = None, usage=None):
        if max_per_image < 0:
            raise ValueError("max_per_image must be >= 0")
        if reset_seconds < 0:
            raise ValueError("reset seconds must be >= 0")
        self.runtime = runtime
        self.clock = clock
        self.max_per_image = max_per_image
        self.reset_seconds = reset_seconds
        #: Optional :class:`~repro.obs.events.EventLog` + the owning
        #: worker's id, so fleet-wide pool churn reads as one stream.
        self.events = events
        self.owner = owner
        #: Optional :class:`~repro.obs.usage.UsageMeter`: warm-slot
        #: occupancy is billable — a hit on a returned container charges
        #: the acquiring tenant the idle time it consumed; a filled one's
        #: and every evicted or drained one's are overhead.
        self.usage = usage
        self._parked: Dict[str, Deque[_Parked]] = {}
        self._closed = False
        self.hits = 0
        self.misses = 0
        #: Containers :meth:`fill` parked.
        self.filled = 0
        #: Hits handed out before ``ready_at`` (the job's ``acquire`` span
        #: carries what each waited).
        self.hits_waited = 0

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
        is left of the work started when the container was parked,
        ``max(0, ready_at - now)`` — zero once it has sat idle long
        enough, its whole charge (never more) when taken at once.  The
        oldest parked container is handed out.  ``usage_key`` is the
        tenant a returned container's consumed slot time is metered
        against; a filled one's is the platform's.
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
                                  tenant=None if entry.filled else usage_key)
            container = entry.container
            container.recycle(limits=limits, mounts=mounts or [],
                              gpu_device=gpu_device, on_output=on_output)
            cost = max(0.0, min(entry.ready_at - now, entry.charge))
            self.hits += 1
            if cost > 0:
                self.hits_waited += 1
            return container, True, cost
        container = self.runtime.create_container(
            image_name, limits=limits, mounts=mounts,
            gpu_device=gpu_device, on_output=on_output)
        self.misses += 1
        return container, False, CREATE_SECONDS

    def _emit(self, type: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(type, worker=self.owner, **fields)

    def release(self, container: Container) -> bool:
        """Return a container after its job; park it or destroy it.

        Returns True when the container was parked for reuse.
        """
        if container.state not in _REUSABLE_STATES:
            if container.state is not ContainerState.DESTROYED:
                self.runtime.destroy_container(container)
            return False
        now = self.clock()
        return self._park(container, now + self.reset_seconds,
                          self.reset_seconds)

    def fill(self, image_name: str, count: int) -> Pull:
        """Start pulling ``image_name`` and park up to ``count`` new
        containers of it (as many as fit), each ready once that pull and a
        create are done — a starting worker's, so neither is paid from a
        job's claim.  Returns the runtime's :class:`~repro.container.
        runtime.Pull` (nothing, on a closed or disabled pool)."""
        if not self.enabled:
            return Pull(0.0, 0, False)
        pull = self.runtime.pull(image_name)
        charge = pull.seconds + CREATE_SECONDS
        ready_at = self.clock() + charge
        room = self.max_per_image - len(self._parked.get(image_name, ()))
        count = max(0, min(count, room))
        for _ in range(count):
            self._park(self.runtime.create_container(image_name), ready_at,
                       charge, filled=True)
        self.filled += count
        self._emit(EventType.POOL_FILL, image=image_name, count=count,
                   ready_at=ready_at)
        return pull

    def _park(self, container: Container, ready_at: float, charge: float,
              filled: bool = False) -> bool:
        """Scrub and park ``container`` until ``ready_at``; destroy it
        instead when the pool cannot take it."""
        if not self.enabled:
            self.runtime.destroy_container(container)
            return False
        image_name = getattr(container.image, "name", None)
        if image_name is None:
            self.runtime.destroy_container(container)
            return False
        queue = self._parked.setdefault(image_name, deque())
        if len(queue) >= self.max_per_image:
            self.runtime.destroy_container(container)
            return False
        container.scrub()
        queue.append(_Parked(container, parked_at=self.clock(),
                             ready_at=ready_at, charge=charge, filled=filled))
        return True

    # -- eviction and shutdown -----------------------------------------

    def evict_expired(self) -> int:
        """Destroy parked containers idle past the TTL; returns count."""
        now = self.clock()
        evicted = 0
        for image_name in list(self._parked):
            queue = self._parked[image_name]
            while queue and now - queue[0].parked_at >= TTL_SECONDS:
                entry = queue.popleft()
                self._destroy_unclaimed(entry, now)
                evicted += 1
                self._emit(EventType.POOL_EVICT, image=image_name,
                           reason="ttl", idle=now - entry.parked_at)
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
