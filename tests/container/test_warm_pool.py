"""Warm container pool: reuse, background reset, sanitization, bounds, TTL,
shutdown."""

import pytest

from repro.container import ContainerRuntime, WarmContainerPool
from repro.container.container import ContainerState
from repro.container.volumes import VolumeMount
from repro.obs.usage import UNATTRIBUTED, UsageMeter
from repro.vfs import VirtualFileSystem


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def runtime():
    return ContainerRuntime()


@pytest.fixture
def pool(runtime, clock):
    return WarmContainerPool(runtime, clock, max_per_image=2,
                             ttl_seconds=100.0,
                             create_seconds=2.0, reset_seconds=0.2)


def _mounts(label: str):
    fs = VirtualFileSystem()
    fs.write_file("/main.cu", f"// {label}\n")
    return [VolumeMount("/src", read_only=True, source_fs=fs)]


class TestAcquireRelease:
    def test_first_acquire_is_a_miss_at_create_cost(self, pool):
        container, hit, cost = pool.acquire("webgpu/rai:root")
        assert not hit
        assert cost == 2.0
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
        assert pool.hit_wait_seconds == pytest.approx(0.35)

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
        stats = pool.stats()
        assert (stats["ready"], stats["resetting"]) == (1, 1)
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
        assert pool.rejected_tainted == 2
        assert runtime.live_count == 0

    def test_already_destroyed_release_is_a_noop(self, pool, runtime):
        container, _, _ = pool.acquire("webgpu/rai:root")
        runtime.destroy_container(container)
        destroyed_before = runtime.total_destroyed
        assert not pool.release(container)
        assert runtime.total_destroyed == destroyed_before
        assert pool.rejected_tainted == 0


class TestBoundsAndTTL:
    def test_per_image_bound_overflow_destroys(self, pool, runtime):
        containers = [pool.acquire("webgpu/rai:root")[0] for _ in range(3)]
        assert pool.release(containers[0])
        assert pool.release(containers[1])
        assert not pool.release(containers[2])
        assert pool.pooled_count == 2
        assert pool.evicted_overflow == 1
        assert runtime.live_count == 2

    def test_ttl_evicts_idle_containers(self, pool, runtime, clock):
        container, _, _ = pool.acquire("webgpu/rai:root")
        pool.release(container)
        clock.now = 99.0
        assert pool.evict_expired() == 0
        clock.now = 100.0
        assert pool.evict_expired() == 1
        assert pool.pooled_count == 0
        assert pool.evicted_ttl == 1
        assert runtime.live_count == 0

    def test_acquire_runs_eviction_first(self, pool, clock):
        container, _, _ = pool.acquire("webgpu/rai:root")
        pool.release(container)
        clock.now = 500.0
        _, hit, _ = pool.acquire("webgpu/rai:root")
        assert not hit             # the parked one expired, not reused
        assert pool.evicted_ttl == 1

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
        stats = pool.stats()
        assert (stats["ready"], stats["resetting"]) == (1, 1)
        assert pool.close() == 2
        assert usage.tenant_total(UNATTRIBUTED, "warm_slot_seconds") == \
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
        stats = pool.stats()
        assert stats["pooled"] == 1
        assert (stats["ready"], stats["resetting"]) == (0, 1)
        assert stats["hits"] == 0 and stats["misses"] == 1
        assert stats["hits_waited"] == 0 and stats["hit_wait_seconds"] == 0.0
        assert stats["closed"] is False
