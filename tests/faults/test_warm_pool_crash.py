"""Chaos regression: worker crash while holding warm-pool containers.

A crashing worker must not leak its parked (warm) containers into the
engine's live count, and the jobs it was holding must be redelivered to
surviving workers — the warm pool cannot weaken the at-least-once
recovery path it sits on top of.
"""

import pytest

from repro.core.config import WorkerConfig
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.obs.usage import UNATTRIBUTED

pytestmark = pytest.mark.chaos

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def warm_config() -> WorkerConfig:
    return WorkerConfig(max_concurrent_jobs=2, warm_pool_size=2)


class TestCrashWithPooledContainers:
    def test_pooled_containers_destroyed_on_crash(self):
        """After a job parks its container and the worker crashes, the
        engine's live count drops to zero — nothing leaks."""
        system = RaiSystem.standard(num_workers=1, seed=21,
                                    worker_config=warm_config())
        victim = system.workers[0]
        client = system.new_client(team="t")
        client.stage_project(FILES)
        result = system.run(system.sim.process(client.submit()))
        assert result.status is JobStatus.SUCCEEDED
        # The finished job parked its container for the next one, beside
        # the other three of the four the worker filled its pool with at
        # boot: two per slot, so a busy slot never waits out the reset of
        # the container it just returned.
        assert victim.pool.filled == 4
        assert victim.pool.pooled_count == 4
        assert victim.runtime.live_count == 4
        victim.crash()
        assert victim.pool.pooled_count == 0
        assert victim.runtime.live_count == 0
        assert victim.pool.stats()["closed"] is True

    def test_in_flight_release_after_crash_destroys(self):
        """A job still executing when its worker crashes must not park
        its container into the dead worker's pool."""
        system = RaiSystem.standard(num_workers=1, seed=22,
                                    worker_config=warm_config())
        victim = system.workers[0]
        client = system.new_client(team="t")
        client.stage_project(FILES)
        system.sim.process(client.submit())

        def chaos(sim):
            yield sim.timeout(8.0)
            assert victim.active_jobs == 1
            victim.crash()

        system.run(system.sim.process(chaos(system.sim)))
        system.run(until=system.sim.now + 60.0)
        assert victim.pool.pooled_count == 0
        assert victim.runtime.live_count == 0

    def test_queued_jobs_redelivered_to_survivor(self):
        """Jobs queued behind the crashed worker's un-acked message are
        redelivered via the caretaker and finish on the replacement."""
        system = RaiSystem.standard(num_workers=1, seed=23,
                                    worker_config=warm_config())
        system.start_caretaker(interval=30.0, in_flight_timeout=600.0)
        victim = system.workers[0]
        client = system.new_client(team="resilient")
        client.stage_project(FILES)
        job_proc = system.sim.process(client.submit())

        def chaos(sim):
            yield sim.timeout(5.0)
            assert victim.active_jobs == 1
            victim.crash()
            yield sim.timeout(60.0)
            system.add_worker(warm_config())

        system.sim.process(chaos(system.sim))
        result = system.run(job_proc)
        assert result.status is JobStatus.SUCCEEDED
        assert result.worker_id != victim.id
        # No container leaked anywhere: the victim's engine is empty and
        # the survivor holds only its parked warm container.
        assert victim.runtime.live_count == 0
        survivor = system.workers[-1]
        assert survivor.runtime.live_count == survivor.pool.pooled_count

    def test_fleet_hit_rate_survives_a_crash(self):
        """fleet_pool_hit_rate stays computable (no ZeroDivision, no
        dead-worker skew) after one of two workers crashes."""
        system = RaiSystem.standard(num_workers=2, seed=24,
                                    worker_config=warm_config())
        client = system.new_client(team="t")
        client.stage_project(FILES)
        result = system.run(system.sim.process(client.submit()))
        assert result.status is JobStatus.SUCCEEDED
        system.workers[0].crash()
        assert 0.0 <= system.fleet_pool_hit_rate() <= 1.0


@pytest.mark.parametrize("how", ["stop", "crash"])
def test_worker_dies_with_one_container_ready_and_one_mid_reset(how):
    """Both parked containers are destroyed — the reset one and the one
    still resetting — and the seconds they sat parked reach the books as
    overhead, once.  ``b`` submits once ``a`` is done, so it takes the
    second container filled at boot and returns it just after ``a``'s
    reset has finished; the filled containers' waits for their first job
    are overhead too, and neither team pays for any of it.  One slot, so
    the pool holds just those two: a two-slot worker fills four, and the
    two left over would be ready too."""
    system = RaiSystem.standard(
        num_workers=1, seed=25,
        worker_config=WorkerConfig(max_concurrent_jobs=1, warm_pool_size=2))
    victim = system.workers[0]
    clients = [system.new_client(team=team) for team in ("a", "b")]
    for client in clients:
        client.stage_project(FILES)

    def late(sim):
        while victim.jobs_completed < 1:
            yield sim.timeout(1.0)
        return (yield from clients[1].submit())

    def chaos(sim):
        while victim.pool.hits < 2 or victim.pool.pooled_count < 2:
            yield sim.timeout(0.05)
        stats = victim.pool.stats()
        assert (stats["ready"], stats["resetting"]) == (1, 1)
        parked_seconds = sum(sim.now - entry.parked_at
                             for queue in victim.pool._parked.values()
                             for entry in queue)
        booked = system.usage.totals["warm_slot_seconds"]
        assert booked > 0           # the two filled containers' waits
        assert system.usage.tenant_total(
            UNATTRIBUTED, "warm_slot_seconds") == booked
        getattr(victim, how)()
        return parked_seconds, booked

    results = system.run_all([clients[0].submit(), late(system.sim),
                              chaos(system.sim)])
    parked_seconds, booked = results[2]
    assert [r.status for r in results[:2]] == [JobStatus.SUCCEEDED] * 2
    assert victim.pool.pooled_count == 0
    assert victim.runtime.live_count == 0
    assert parked_seconds > 0
    assert system.usage.tenant_total(UNATTRIBUTED, "warm_slot_seconds") == \
        pytest.approx(booked + parked_seconds)
    assert system.usage.totals["warm_slot_seconds"] == \
        pytest.approx(booked + parked_seconds)
