"""The warm pool and the image pull against the rules they replaced.

``WarmContainerPool`` starts a container's reset when its job returns it,
hands out the oldest parked container (in a worker, the one ready
soonest) and charges the next job only what is left of its reset; a
worker starting up fills it with two containers a slot that are ready
once the course image's pull and a create are done; and
``ContainerRuntime.pull`` waits for layers already in flight instead of
fetching them again.  The oracles below are kept here only as a
specification:

- the pool it replaced: the same TTL / overflow / taint bookkeeping,
  every hit on a returned container charged the whole reset, no fill,
  and the oldest-first hand-out;
- the pull rule it replaced, for a job's whole acquire stage: every layer
  not yet here costs its bytes over the bandwidth from now, then a create
  (miss, or a filled container) or a reset (a returned one);
- the layer cache, stated directly: a pull starts the layers never asked
  for, one after another, and is done when every layer is here.

Generated schedules of acquire / release / taint / fill / pull (a job that
starts pulling and is still waiting) / advance-clock / evict / close over
one to three images must hand out the same containers with the same
counters, charge a hit exactly ``max(0, ready_at - now)``, never make a
job wait longer than the replaced rule, meter every parked second once
(a filled container's to nobody) and leave nothing live after close.

A worker's pool is then driven as its slots drive it — generated slots,
arrival gaps and job lengths either side of the reset — against a model
of its parked entries:
every hit is the one ready soonest and costs the least wait any parked
entry could, the pool never holds more than two containers a slot, and a
one-slot worker running back to back waits for a reset only when its
jobs are shorter than one.

Times are multiples of 1/64 s — the reset 1/4 s, a layer byte one tick —
so every sum and difference below is exact in binary floating point and
the comparisons can be ``==`` and ``<=`` rather than approximate.
"""

from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container import ContainerRuntime, WarmContainerPool
from repro.container import pool as pool_module
from repro.container.container import ContainerState
from repro.container.image import Image, ImageLayer, ImageRegistry
from repro.core.config import WorkerConfig
from repro.core.system import RaiSystem
from repro.core.worker import COURSE_IMAGE, WARM_POOL_SIZE
from repro.obs.usage import UNATTRIBUTED, UsageMeter

pytestmark = pytest.mark.sched

TICK = 1 / 64
CREATE, RESET, TTL, PER_IMAGE = pool_module.CREATE_SECONDS, 0.25, 4.0, 2
BANDWIDTH = 1 / TICK            # bytes per second: a byte is one tick
#: Layers are shared as a common base, as Docker's are.  Every image pulls
#: in well under ``TTL - CREATE``, so a filled container can be taken.
BASE = ImageLayer("sha256:base", 64)
MID = ImageLayer("sha256:mid", 32)
LAYERS = {
    "img/a": [BASE, ImageLayer("sha256:a", 48)],
    "img/b": [BASE, MID, ImageLayer("sha256:b", 16)],
    "img/c": [BASE, MID],
}
IMAGES = tuple(LAYERS)

ticks = st.one_of(st.integers(0, 24), st.integers(0, 400))
ops = st.one_of(
    st.tuples(st.just("acquire"), st.integers(0, 2)),
    st.tuples(st.just("acquire"), st.integers(0, 2)),
    st.tuples(st.just("release"), st.integers(0, 7)),
    st.tuples(st.just("release"), st.integers(0, 7)),
    st.tuples(st.just("taint"), st.integers(0, 7)),
    st.tuples(st.just("fill"), st.integers(0, 2), st.integers(0, 3)),
    st.tuples(st.just("pull"), st.integers(0, 2)),
    st.tuples(st.just("advance"), ticks),
    st.tuples(st.just("advance"), ticks),
    st.tuples(st.just("evict")),
    st.tuples(st.just("close")),
)


class Clock:
    now = 0.0

    def __call__(self):
        return self.now


class LayerCache:
    """When each layer asked for is here."""

    def __init__(self):
        self.at = {}

    def pull(self, image, now):
        """Start what was never asked for, in order; return when every
        layer of ``image`` is here."""
        sent = 0
        for layer in LAYERS[image]:
            if layer.digest not in self.at:
                sent += layer.size_bytes
                self.at[layer.digest] = now + sent / BANDWIDTH
        return max([now] + [self.at[l.digest] for l in LAYERS[image]])

    def missing_seconds(self, image, now):
        """The replaced rule: every layer not here yet, fetched from now."""
        return sum(l.size_bytes for l in LAYERS[image]
                   if self.at.get(l.digest, now + 1) > now) / BANDWIDTH


class FlatChargePool:
    """The replaced design: park on release, charge ``RESET`` on any hit
    of a returned container; plus the fill, which it did not have."""

    def __init__(self):
        self.parked = {}        # image -> deque of [container, parked_at,
        #                         ready_at (filled) or None (returned)]
        self.closed = False
        self.hits = self.misses = 0
        self.evicted_ttl = self.evicted_overflow = self.rejected_tainted = 0
        self.idle_seconds = 0.0     # parked time of every entry that left
        self.team_seconds = 0.0     # ... of returned entries a hit took

    def evict_expired(self, now):
        for image in list(self.parked):
            queue = self.parked[image]
            while queue and now - queue[0][1] >= TTL:
                self.idle_seconds += now - queue.popleft()[1]
                self.evicted_ttl += 1
            if not queue:
                del self.parked[image]

    def acquire(self, image, now):
        """``(entry or None for a fresh container, replaced charge)``."""
        self.evict_expired(now)
        queue = self.parked.get(image)
        if queue and not self.closed:
            entry = queue.popleft()
            if not queue:
                del self.parked[image]
            self.idle_seconds += now - entry[1]
            if entry[2] is None:
                self.team_seconds += now - entry[1]
            self.hits += 1
            return entry, RESET if entry[2] is None else CREATE
        self.misses += 1
        return None, CREATE

    def release(self, container, image, tainted, now):
        if tainted:
            self.rejected_tainted += 1
        elif self.closed:
            pass
        elif len(self.parked.get(image, ())) >= PER_IMAGE:
            self.evicted_overflow += 1
        else:
            self.parked.setdefault(image, deque()).append(
                [container, now, None])
            return True
        return False

    def fill(self, image, count, now, ready_at):
        """Park up to ``count`` placeholders; return how many."""
        if self.closed:
            return 0
        queue = self.parked.setdefault(image, deque())
        count = max(0, min(count, PER_IMAGE - len(queue)))
        queue.extend([None, now, ready_at] for _ in range(count))
        if not queue:
            del self.parked[image]
        return count

    def close(self, now):
        self.closed = True
        for queue in self.parked.values():
            for entry in queue:
                self.idle_seconds += now - entry[1]
        self.parked.clear()


def ready_of(entry):
    return entry[1] + RESET if entry[2] is None else entry[2]


def registry_of(n_images):
    registry = ImageRegistry()
    for name in IMAGES[:n_images]:
        registry.add(Image(name=name, packages=[], layers=LAYERS[name],
                           size_bytes=sum(l.size_bytes
                                          for l in LAYERS[name])))
    return registry


@settings(max_examples=200)
@given(n_images=st.integers(1, 3), schedule=st.lists(ops, max_size=60))
def test_background_reset_against_the_flat_charge(n_images, schedule):
    with mock.patch.object(pool_module, "TTL_SECONDS", TTL):
        background_reset_against_the_flat_charge(n_images, schedule)


def background_reset_against_the_flat_charge(n_images, schedule):
    clock = Clock()
    runtime = ContainerRuntime(registry=registry_of(n_images),
                               pull_bandwidth_bps=BANDWIDTH, clock=clock)
    usage = UsageMeter(clock)
    pool = WarmContainerPool(runtime, clock, max_per_image=PER_IMAGE,
                             reset_seconds=RESET, usage=usage)
    oracle, layers = FlatChargePool(), LayerCache()
    held = []                       # (container, image) a job is using
    waited = wait_seconds = filled = pulled = 0

    for op, *args in schedule:
        now = clock.now
        if op == "acquire":
            image = IMAGES[args[0] % n_images]
            # The job's whole acquire stage: the pull, then the pool.
            replaced = layers.missing_seconds(image, now)
            pull = runtime.pull(image)
            assert pull.seconds == layers.pull(image, now) - now
            pulled += pull.bytes
            clock.now = now + pull.seconds
            entry, flat = oracle.acquire(image, clock.now)
            container, hit, cost = pool.acquire(image, usage_key="team")
            assert hit == (entry is not None)
            if hit:
                # The oldest-first hand-out.
                assert container is entry[0]
                assert cost == max(0.0, ready_of(entry) - clock.now)
                waited += cost > 0
                wait_seconds += cost
            else:
                assert cost == CREATE
            assert cost <= flat
            assert pull.seconds + cost <= replaced + flat
            held.append((container, image))
        elif op in ("release", "taint") and held:
            container, image = held.pop(args[0] % len(held))
            if op == "taint":
                container.state = ContainerState.OOM_KILLED
            parked = oracle.release(container, image, op == "taint", now)
            assert pool.release(container) == parked
            if not parked:
                assert container.state is ContainerState.DESTROYED
        elif op == "fill":
            image = IMAGES[args[0] % n_images]
            if oracle.closed:
                assert pool.fill(image, args[1]) == (0.0, 0, False)
            else:
                done = layers.pull(image, now)
                count = oracle.fill(image, args[1], now, done + CREATE)
                pull = pool.fill(image, args[1])
                assert pull.seconds == done - now
                pulled += pull.bytes
                filled += count
                # Name the oracle's new entries after the pool's.
                if count:
                    for mine, theirs in zip(
                            list(oracle.parked[image])[-count:],
                            list(pool._parked[image])[-count:]):
                        mine[0] = theirs.container
        elif op == "pull":
            image = IMAGES[args[0] % n_images]
            pull = runtime.pull(image)
            assert pull.seconds == layers.pull(image, now) - now
            pulled += pull.bytes
        elif op == "advance":
            clock.now += args[0] * TICK
        elif op == "evict":
            oracle.evict_expired(now)
            pool.evict_expired()
        elif op == "close":
            oracle.close(now)
            pool.close()
        assert pool.pooled_count == \
            sum(len(q) for q in oracle.parked.values())
        assert runtime.live_count == pool.pooled_count + len(held)

    oracle.close(clock.now)
    pool.close()
    for container, _ in held:
        assert not pool.release(container)
    assert runtime.live_count == 0
    assert (pool.hits, pool.misses, pool.filled) == \
        (oracle.hits, oracle.misses, filled)
    assert (pool.evicted_ttl, pool.evicted_overflow, pool.rejected_tainted) \
        == (oracle.evicted_ttl, oracle.evicted_overflow,
            oracle.rejected_tainted)
    assert (pool.hits_waited, pool.hit_wait_seconds) == (waited, wait_seconds)
    # Every layer byte is counted once, by the request that started it.
    sizes = {l.digest: l.size_bytes for name in IMAGES for l in LAYERS[name]}
    assert runtime.stats()["bytes_pulled"] == pulled == \
        sum(sizes[digest] for digest in layers.at)
    # Every parked second is metered exactly once, however it ended; a
    # filled container's wait for its first job is nobody's.
    assert usage.totals.get("warm_slot_seconds", 0.0) == oracle.idle_seconds
    team = usage.tenants.get("team", {})
    idle = usage.tenants.get(UNATTRIBUTED, {})
    assert team.get("warm_slot_seconds", 0.0) == oracle.team_seconds
    assert idle.get("warm_slot_seconds", 0.0) == \
        oracle.idle_seconds - oracle.team_seconds


# -- a worker's pool, driven as its slots drive it ---------------------------

#: The course image is 2**32 bytes: pulled at 2**26 B/s it takes 64 s, so
#: every instant below stays a multiple of ``TICK`` too.
PULL_BPS = 2 ** 26
PULLED = 64.0
#: Containers a slot: one its job runs on, one resetting.
DEPTH = WARM_POOL_SIZE

gaps = st.one_of(st.just(0), st.integers(0, 64), st.integers(0, 3000))
lengths = st.one_of(st.integers(0, 15), st.integers(16, 400))  # vs RESET
slot_jobs = st.lists(st.tuples(gaps, lengths), min_size=1, max_size=6)


def run_slots(jobs):
    """Boot a worker with a slot for each list in ``jobs`` and drive its
    pool as its slots do: each ``(gap, length)`` (ticks) waits out its
    gap, acquires, waits out the cost, holds the container for its length
    and returns it.

    Every hit is checked against a model of the parked entries; returns
    ``(slot, cost, filled)`` per hit."""
    system = RaiSystem(seed=5)
    worker = system.add_worker(WorkerConfig(
        max_concurrent_jobs=len(jobs), pull_bandwidth_bps=PULL_BPS,
        container_reset_seconds=RESET))
    sim, pool = system.sim, worker.pool
    model = []          # [container, ready_at, filled], in parked order
    fills = [PULLED + CREATE] * (DEPTH * len(jobs))  # ready_at, not parked
    held, log = set(), []

    def adopt():
        """Model the containers a fill parked since the last look."""
        known = held | {id(c) for c, _, _ in model}
        for entry in pool._parked.get(COURSE_IMAGE, ()):
            if id(entry.container) not in known:
                model.append([entry.container, fills.pop(0), True])
        assert pool.pooled_count == len(model) <= DEPTH * worker.slot_count

    def slot(name, jobs):
        for gap, length in jobs:
            yield sim.timeout(gap * TICK)
            adopt()
            now = sim.now
            soonest = min(model, key=lambda m: m[1])    # oldest on a tie
            container, hit, cost = pool.acquire(COURSE_IMAGE)
            assert hit and container is soonest[0]
            assert cost == max(0.0, soonest[1] - now) == \
                min(max(0.0, ready - now) for _, ready, _ in model)
            model.remove(soonest)
            held.add(id(container))
            log.append((name, cost, soonest[2]))
            yield sim.timeout(cost + length * TICK)
            adopt()
            held.remove(id(container))
            assert pool.release(container)
            model.append([container, sim.now + RESET, False])
            adopt()

    system.run_all([slot(i, mine) for i, mine in enumerate(jobs)])
    adopt()
    assert fills == []
    assert pool.filled == DEPTH * worker.slot_count
    assert (pool.hits, pool.misses, pool.evicted_overflow) == (len(log), 0, 0)
    worker.stop()
    assert pool.pooled_count == 0 and worker.runtime.live_count == 0
    return log


@settings(max_examples=100)
@given(jobs=st.lists(slot_jobs, min_size=1, max_size=4))
def test_every_hit_is_the_soonest_ready_and_the_pool_two_a_slot(jobs):
    run_slots(jobs)


@settings(max_examples=40)
@given(length=st.integers(0, 48), n_jobs=st.integers(3, 8))
def test_one_slot_back_to_back_waits_only_on_jobs_shorter_than_a_reset(
        length, n_jobs):
    """The first job waits out the boot pull and create, the second takes
    the other filled container.  From then on the slot takes the container
    it returned a job ago: after a job of ``d >= RESET`` its reset is done;
    after a shorter one the hit waits exactly ``RESET - d``, which lines
    the next job up with the end of the other container's reset, so the
    waits alternate with hits that wait for nothing."""
    log = run_slots([[(0, length)] * n_jobs])
    d = length * TICK
    short = max(0.0, RESET - d)
    assert [cost for _, cost, _ in log] == [PULLED + CREATE, 0.0] + \
        [short if k % 2 == 0 else 0.0 for k in range(n_jobs - 2)]

