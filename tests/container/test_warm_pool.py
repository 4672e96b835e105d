"""Warm container pool: reuse, background reset, sanitization, bounds, TTL,
shutdown."""

import pytest

from repro.container import ContainerRuntime, WarmContainerPool
from repro.container.pool import CREATE_SECONDS, TTL_SECONDS
from repro.container.container import ContainerState
from repro.container.volumes import VolumeMount
from repro.obs.events import EventLog
from repro.obs.usage import UNATTRIBUTED, UsageMeter
from repro.vfs import VirtualFileSystem


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def ready_and_resetting(pool):
    """Parked containers ready now, and those still resetting."""
    now = pool.clock()
    parked = [entry for queue in pool._parked.values() for entry in queue]
    ready = sum(entry.ready_at <= now for entry in parked)
    return ready, len(parked) - ready


def events(pool, type):
    """The fields of the pool's ``type`` events, in order."""
    return [event.fields for event in pool.events.query(type=type)]


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def runtime():
    return ContainerRuntime()


@pytest.fixture
def pool(runtime, clock):
    return WarmContainerPool(runtime, clock, max_per_image=2,
                             reset_seconds=0.2, events=EventLog(clock=clock))


def _mounts(label: str):
    fs = VirtualFileSystem()
    fs.write_file("/main.cu", f"// {label}\n")
    return [VolumeMount("/src", read_only=True, source_fs=fs)]


class TestAcquireRelease:
    def test_first_acquire_is_a_miss_at_create_cost(self, pool):
        container, hit, cost = pool.acquire("webgpu/rai:root")
        assert not hit
        assert cost == CREATE_SECONDS
        assert pool.misses == 1 and pool.hits == 0

    def test_release_then_acquire_is_a_hit_at_reset_cost(self, pool, clock):
        container, _, _ = pool.acquire("webgpu/rai:root")
        assert pool.release(container)
        assert pool.pooled_count == 1
        # Frozen clock: the reset started this instant, all of it is left.
        again, hit, cost = pool.acquire("webgpu/rai:root")
        assert hit
        assert cost == 0.2
        assert again is container
        assert pool.hit_rate() == 0.5
        # 0.05 s after the release: what is left of the reset.
        pool.release(again)
        clock.now += 0.05
        _, hit, cost = pool.acquire("webgpu/rai:root")
        assert hit and cost == pytest.approx(0.15)
        # 1 s after: the reset finished long ago, nothing to wait for.
        pool.release(again)
        clock.now += 1.0
        _, hit, cost = pool.acquire("webgpu/rai:root")
        assert hit and cost == 0.0
        assert (pool.hits, pool.hits_waited) == (3, 2)

    def test_a_hit_never_costs_more_than_a_reset(self, pool, clock):
        clock.now = 0.1
        assert (clock.now + 0.2) - clock.now > 0.2      # float addition
        container, _, _ = pool.acquire("webgpu/rai:root")
        pool.release(container)
        _, hit, cost = pool.acquire("webgpu/rai:root")
        assert hit and cost == 0.2

    def test_hand_out_is_oldest_parked_hence_earliest_ready(self, pool,
                                                            clock):
        first, _, _ = pool.acquire("webgpu/rai:root")
        second, _, _ = pool.acquire("webgpu/rai:root")
        pool.release(first)
        clock.now = 0.15
        pool.release(second)
        clock.now = 0.25
        assert ready_and_resetting(pool) == (1, 1)
        got, _, cost = pool.acquire("webgpu/rai:root")
        assert got is first and cost == 0.0
        got, _, cost = pool.acquire("webgpu/rai:root")
        assert got is second and cost == pytest.approx(0.1)

    def test_hit_only_for_the_same_image(self, pool):
        container, _, _ = pool.acquire("webgpu/rai:root")
        pool.release(container)
        other, hit, _ = pool.acquire("webgpu/rai:minimal")
        assert not hit
        assert other is not container

    def test_no_engine_create_on_a_hit(self, pool, runtime):
        container, _, _ = pool.acquire("webgpu/rai:root")
        pool.release(container)
        created_before = runtime.total_created
        pool.acquire("webgpu/rai:root")
        assert runtime.total_created == created_before


class TestSanitization:
    def test_released_container_is_scrubbed_before_parking(self, pool):
        container, _, _ = pool.acquire(
            "webgpu/rai:root", mounts=_mounts("team-a"))
        container.start()
        container.env["TEAM_SECRET"] = "hunter2"
        pool.release(container)
        assert container.env == {}
        assert container.fs is None

    def test_reuse_reprovisions_for_the_new_job(self, pool):
        container, _, _ = pool.acquire(
            "webgpu/rai:root", mounts=_mounts("team-a"))
        container.start()
        generation = container.generation
        pool.release(container)
        again, hit, _ = pool.acquire(
            "webgpu/rai:root", mounts=_mounts("team-b"))
        assert hit and again is container
        assert again.generation == generation + 1
        assert again.state is ContainerState.CREATED
        assert "TEAM_SECRET" not in again.env
        # The new job's /src is mounted, not team-a's.
        assert again.fs.read_text("/src/main.cu") == "// team-b\n"

    def test_tainted_container_never_pooled(self, pool, runtime):
        for state in (ContainerState.OOM_KILLED, ContainerState.TIMED_OUT):
            container, _, _ = pool.acquire("webgpu/rai:root")
            container.state = state
            assert not pool.release(container)
            assert container.state is ContainerState.DESTROYED
        assert pool.pooled_count == 0
        assert runtime.total_destroyed == 2
        assert runtime.live_count == 0

    def test_already_destroyed_release_is_a_noop(self, pool, runtime):
        container, _, _ = pool.acquire("webgpu/rai:root")
        runtime.destroy_container(container)
        destroyed_before = runtime.total_destroyed
        assert not pool.release(container)
        assert runtime.total_destroyed == destroyed_before == 1


class TestBoundsAndTTL:
    def test_per_image_bound_overflow_destroys(self, pool, runtime):
        containers = [pool.acquire("webgpu/rai:root")[0] for _ in range(3)]
        assert pool.release(containers[0])
        assert pool.release(containers[1])
        assert not pool.release(containers[2])
        assert pool.pooled_count == 2
        assert runtime.total_destroyed == 1
        assert runtime.live_count == 2

    def test_ttl_evicts_idle_containers(self, pool, runtime, clock):
        container, _, _ = pool.acquire("webgpu/rai:root")
        pool.release(container)
        clock.now = TTL_SECONDS - 1.0
        assert pool.evict_expired() == 0
        clock.now = TTL_SECONDS
        assert pool.evict_expired() == 1
        assert pool.pooled_count == 0
        assert [e["reason"] for e in events(pool, "pool.evict")] == ["ttl"]
        assert runtime.live_count == 0

    def test_acquire_runs_eviction_first(self, pool, clock):
        container, _, _ = pool.acquire("webgpu/rai:root")
        pool.release(container)
        clock.now = 5 * TTL_SECONDS
        _, hit, _ = pool.acquire("webgpu/rai:root")
        assert not hit             # the parked one expired, not reused
        assert [e["reason"] for e in events(pool, "pool.evict")] == ["ttl"]

    def test_disabled_pool_never_parks(self, runtime, clock):
        pool = WarmContainerPool(runtime, clock, max_per_image=0)
        container, hit, _ = pool.acquire("webgpu/rai:root")
        assert not hit
        assert not pool.release(container)
        assert runtime.live_count == 0


class TestShutdown:
    def test_close_drains_and_refuses_future_parking(self, pool, runtime):
        parked, _, _ = pool.acquire("webgpu/rai:root")
        pool.release(parked)
        in_flight, _, _ = pool.acquire("webgpu/rai:minimal")
        assert pool.close() == 1
        assert runtime.live_count == 1        # only the in-flight one
        # A job finishing after the crash destroys, never parks.
        assert not pool.release(in_flight)
        assert runtime.live_count == 0
        assert pool.pooled_count == 0

    def test_close_meters_parked_idle_time_as_overhead(self, runtime, clock):
        """Stop or crash with one container ready and one mid-reset: both
        are destroyed and their parked seconds reach the books, once."""
        usage = UsageMeter(clock)
        pool = WarmContainerPool(runtime, clock, max_per_image=2,
                                 reset_seconds=0.2, usage=usage)
        ready, _, _ = pool.acquire("webgpu/rai:root")
        resetting, _, _ = pool.acquire("webgpu/rai:root")
        in_flight, _, _ = pool.acquire("webgpu/rai:root")
        pool.release(ready)
        clock.now = 5.0
        pool.release(resetting)
        clock.now = 5.1
        assert ready_and_resetting(pool) == (1, 1)
        assert pool.close() == 2
        assert usage.tenants[UNATTRIBUTED]["warm_slot_seconds"] == \
            pytest.approx(5.1 + 0.1)
        # The job still running when the worker died destroys its
        # container; it was never parked, so there is nothing to meter.
        clock.now = 9.0
        assert not pool.release(in_flight)
        assert runtime.live_count == 0
        assert usage.totals["warm_slot_seconds"] == pytest.approx(5.2)

    def test_stats_shape(self, pool):
        container, _, _ = pool.acquire("webgpu/rai:root")
        pool.release(container)
        assert pool.pooled_count == 1
        assert ready_and_resetting(pool) == (0, 1)
        assert pool.hits == 0 and pool.misses == 1
        assert pool.hits_waited == 0


class TestFill:
    """A starting worker's fill: one pull, containers parked until that
    pull and a create are done, their idle time nobody's."""

    def _pool(self, clock, **kwargs):
        from repro.obs.events import EventLog

        runtime = ContainerRuntime(clock=clock)
        return WarmContainerPool(runtime, clock, max_per_image=2,
                                 reset_seconds=0.2,
                                 events=EventLog(clock=clock), **kwargs)

    def test_fill_parks_until_the_pull_and_a_create_are_done(self, clock):
        pool = self._pool(clock)
        pull = pool.fill("webgpu/rai:root", 3)
        image = pool.runtime.registry.get("webgpu/rai:root")
        assert pull.bytes == image.size_bytes and not pull.joined
        assert pull.seconds == image.size_bytes / 100e6
        ready_at = pull.seconds + CREATE_SECONDS
        # As many as fit; the pool's own counters and event say so.
        assert (pool.pooled_count, pool.filled) == (2, 2)
        assert ready_and_resetting(pool) == (0, 2)
        event, = pool.events.query(type="pool.fill")
        assert event.fields == {"worker": None, "image": "webgpu/rai:root",
                                "count": 2, "ready_at": ready_at}
        # A job claiming it mid-pull pays what is left, never more.
        clock.now = 20.0
        _, hit, cost = pool.acquire("webgpu/rai:root")
        assert hit and cost == pytest.approx(ready_at - 20.0)
        clock.now = ready_at + 1.0
        _, hit, cost = pool.acquire("webgpu/rai:root")
        assert hit and cost == 0.0

    def test_after_a_pre_pull_only_the_create_is_left(self, clock):
        pool = self._pool(clock)
        pool.runtime.destroy_container(
            pool.runtime.create_container("webgpu/rai:root"))
        pull = pool.fill("webgpu/rai:root", 1)
        assert (pull.seconds, pull.bytes) == (0.0, 0)
        _, hit, cost = pool.acquire("webgpu/rai:root")
        assert hit and cost == CREATE_SECONDS

    def test_a_filled_containers_idle_time_is_nobodys(self, clock):
        usage = UsageMeter(clock)
        pool = self._pool(clock, usage=usage)
        pool.fill("webgpu/rai:root", 2)
        clock.now = 100.0
        taken, _, _ = pool.acquire("webgpu/rai:root", usage_key="team")
        clock.now = 150.0
        pool.close()
        assert "warm_slot_seconds" not in usage.tenants.get("team", {})
        assert usage.tenants[UNATTRIBUTED]["warm_slot_seconds"] == \
            100.0 + 150.0
        assert not pool.release(taken)
        assert pool.runtime.live_count == 0

    def test_closed_or_disabled_pool_fills_and_pulls_nothing(self, clock):
        for pool in (self._pool(clock), WarmContainerPool(
                ContainerRuntime(clock=clock), clock, max_per_image=0)):
            pool.close()
            assert pool.fill("webgpu/rai:root", 2) == (0.0, 0, False)
            assert pool.runtime.stats()["bytes_pulled"] == 0
            assert pool.pooled_count == 0
