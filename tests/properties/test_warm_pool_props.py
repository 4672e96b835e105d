"""The warm pool's background reset against the flat charge it replaced.

``WarmContainerPool`` starts a container's reset when its job returns it
and charges the next job only what is left of it.  The oracle below is
the behaviour it replaced, kept here only as a specification: the same
FIFO / TTL / overflow / taint bookkeeping, but every hit charged the whole
reset at acquire.  Generated schedules of acquire / release / taint /
advance-clock / evict / close over one to three images must hand out the
same containers with the same counters, never charge more than the
oracle did, and never hand a container out before its reset is done
without charging the remainder.

Times are multiples of 1/64 s (and the reset 1/4 s), so every sum and
difference below is exact in binary floating point and the comparisons
can be ``==`` and ``<=`` rather than approximate.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container import ContainerRuntime, WarmContainerPool
from repro.container.container import ContainerState
from repro.container.image import Image, ImageRegistry
from repro.obs.usage import UsageMeter

pytestmark = pytest.mark.sched

TICK = 1 / 64
CREATE, RESET, TTL, PER_IMAGE = 2.0, 0.25, 4.0, 2
IMAGES = ("img/a", "img/b", "img/c")

ticks = st.one_of(st.integers(0, 24), st.integers(0, 400))
ops = st.one_of(
    st.tuples(st.just("acquire"), st.integers(0, 2)),
    st.tuples(st.just("acquire"), st.integers(0, 2)),
    st.tuples(st.just("release"), st.integers(0, 7)),
    st.tuples(st.just("release"), st.integers(0, 7)),
    st.tuples(st.just("taint"), st.integers(0, 7)),
    st.tuples(st.just("advance"), ticks),
    st.tuples(st.just("advance"), ticks),
    st.tuples(st.just("evict")),
    st.tuples(st.just("close")),
)


class Clock:
    now = 0.0

    def __call__(self):
        return self.now


class FlatChargePool:
    """The replaced design: park on release, charge ``RESET`` on any hit."""

    def __init__(self):
        self.parked = {}            # image -> deque of (container, parked_at)
        self.closed = False
        self.hits = self.misses = 0
        self.evicted_ttl = self.evicted_overflow = self.rejected_tainted = 0
        self.idle_seconds = 0.0     # parked time of every entry that left

    def evict_expired(self, now):
        for image in list(self.parked):
            queue = self.parked[image]
            while queue and now - queue[0][1] >= TTL:
                self.idle_seconds += now - queue.popleft()[1]
                self.evicted_ttl += 1
            if not queue:
                del self.parked[image]

    def acquire(self, image, now):
        """``(container or None for a fresh one, parked_at, flat charge)``."""
        self.evict_expired(now)
        queue = self.parked.get(image)
        if queue and not self.closed:
            container, parked_at = queue.popleft()
            if not queue:
                del self.parked[image]
            self.idle_seconds += now - parked_at
            self.hits += 1
            return container, parked_at, RESET
        self.misses += 1
        return None, None, CREATE

    def release(self, container, image, tainted, now):
        if tainted:
            self.rejected_tainted += 1
        elif self.closed:
            pass
        elif len(self.parked.get(image, ())) >= PER_IMAGE:
            self.evicted_overflow += 1
        else:
            self.parked.setdefault(image, deque()).append((container, now))
            return True
        return False

    def close(self, now):
        self.closed = True
        for queue in self.parked.values():
            for _, parked_at in queue:
                self.idle_seconds += now - parked_at
        self.parked.clear()


def registry_of(n_images):
    registry = ImageRegistry()
    for name in IMAGES[:n_images]:
        registry.add(Image(name=name, size_bytes=1024, packages=[]))
    return registry


@settings(max_examples=150, deadline=None)
@given(n_images=st.integers(1, 3), schedule=st.lists(ops, max_size=60))
def test_background_reset_against_the_flat_charge(n_images, schedule):
    clock = Clock()
    runtime = ContainerRuntime(registry=registry_of(n_images))
    usage = UsageMeter(clock)
    pool = WarmContainerPool(runtime, clock, max_per_image=PER_IMAGE,
                             ttl_seconds=TTL, create_seconds=CREATE,
                             reset_seconds=RESET, usage=usage)
    oracle = FlatChargePool()
    held = []                       # (container, image) a job is using
    waited = wait_seconds = 0

    for op, *args in schedule:
        now = clock.now
        if op == "acquire":
            image = IMAGES[args[0] % n_images]
            expected, parked_at, flat = oracle.acquire(image, now)
            container, hit, cost = pool.acquire(image, usage_key="team")
            assert hit == (expected is not None)
            if hit:
                # FIFO hand-out; the head is also the earliest ready.
                assert container is expected
                assert all(entry.ready_at >= parked_at + RESET for entry
                           in pool._parked.get(image, ()))
                assert cost == max(0.0, parked_at + RESET - now)
                assert now + cost >= parked_at + RESET
                waited += cost > 0
                wait_seconds += cost
            else:
                assert cost == CREATE
            assert cost <= flat
            held.append((container, image))
        elif op in ("release", "taint") and held:
            container, image = held.pop(args[0] % len(held))
            if op == "taint":
                container.state = ContainerState.OOM_KILLED
            parked = oracle.release(container, image, op == "taint", now)
            assert pool.release(container) == parked
            if not parked:
                assert container.state is ContainerState.DESTROYED
        elif op == "advance":
            clock.now += args[0] * TICK
        elif op == "evict":
            oracle.evict_expired(now)
            pool.evict_expired()
        elif op == "close":
            oracle.close(now)
            pool.close()
        stats = pool.stats()
        assert stats["ready"] + stats["resetting"] == stats["pooled"] == \
            sum(len(q) for q in oracle.parked.values())
        assert runtime.live_count == stats["pooled"] + len(held)

    oracle.close(clock.now)
    pool.close()
    for container, _ in held:
        assert not pool.release(container)
    assert runtime.live_count == 0
    assert (pool.hits, pool.misses) == (oracle.hits, oracle.misses)
    assert (pool.evicted_ttl, pool.evicted_overflow, pool.rejected_tainted) \
        == (oracle.evicted_ttl, oracle.evicted_overflow,
            oracle.rejected_tainted)
    assert (pool.hits_waited, pool.hit_wait_seconds) == (waited, wait_seconds)
    # Every parked second is metered exactly once, however it ended.
    assert usage.totals.get("warm_slot_seconds", 0.0) == oracle.idle_seconds
