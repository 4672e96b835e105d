"""Tier-1 smoke of the warm-start layer: pooled reuse beats cold starts.

A deadline-week storm — the course deadline hours away, a loose rate
limit, and one team flooding the queue — runs once with each worker's
warm pool and once with a pool of depth 0, so a regression in the
warm pool, the fair-share scheduler, or their worker wiring fails fast.
"""

from unittest import mock

import pytest

from repro.broker.topic import Channel
from repro.core import worker
from repro.core.config import SystemConfig, WorkerConfig
from tests.golden import resubmission_storm

pytestmark = [pytest.mark.perf, pytest.mark.sched]


def _deadline_week(warm_pool_size: int):
    # Every job rides the deadline boost band, so fairness comes entirely
    # from DRR within it; arrivals outrun the fleet's service rate.
    config = SystemConfig(rate_limit_seconds=0.25,
                          course_deadline_at=6 * 3600.0)
    worker_config = WorkerConfig(max_concurrent_jobs=2,
                                 container_reset_seconds=0.25)
    # Count the claims a prefetch (``try_deliver``) made, not a parked get.
    prefetched = []
    try_deliver = Channel.try_deliver

    def counting_try_deliver(channel):
        message = try_deliver(channel)
        if message is not None:
            prefetched.append(message.id)
        return message

    with mock.patch.object(worker, "WARM_POOL_SIZE", warm_pool_size), \
            mock.patch.object(Channel, "try_deliver", counting_try_deliver):
        storm = resubmission_storm(config=config, worker_config=worker_config,
                                   flood_clients=3, flood_submissions=2)
    storm.prefetched = len(prefetched)
    return storm


@pytest.fixture(scope="module")
def warm():
    return _deadline_week(warm_pool_size=2)


@pytest.fixture(scope="module")
def cold():
    return _deadline_week(warm_pool_size=0)


def _acquires(storm) -> list:
    """Every job's ``container.acquire`` fields, off its ``acquire`` span."""
    store = storm.system.tracer.store
    return [fields
            for r in storm.first + storm.resubmissions + storm.flood
            for span in store.trace_for_job(r.job_id).spans
            if span.name == "acquire"
            for _, name, fields in span.events if name == "container.acquire"]


def _mean_acquire_cost(storm) -> float:
    """Over every acquire: a hit's wait, a miss's create."""
    costs = [fields["seconds"] for fields in _acquires(storm)]
    assert len(costs) == sum(w.pool.hits + w.pool.misses
                             for w in storm.system.workers)
    return sum(costs) / len(costs)


def test_warm_reuse_halves_mean_acquire_cost(warm, cold):
    """The acceptance floor: warm-pool reuse makes the mean container
    acquisition at least 2x cheaper than creating every container.  The
    first job on each slot no longer creates cold: it takes the container
    its worker filled at boot and waits out the rest of that create as a
    warm hit, so the warm run's only misses are on the lean image, which
    no worker fills.  Each worker fills two containers per slot — its
    two slots' jobs run on one each while the other resets."""
    assert _mean_acquire_cost(cold) >= 2.0 * _mean_acquire_cost(warm)
    system = warm.system
    assert sum(w.pool.filled for w in system.workers) == \
        2 * 2 * len(system.workers)
    assert {fields["image"] for fields in _acquires(warm)
            if not fields["pool_hit"]} == {"webgpu/rai:minimal"}


def test_baseline_never_warms(cold):
    assert sum(w.pool.hits for w in cold.system.workers) == 0
    assert cold.system.fleet_pool_hit_rate() == 0.0
    assert not any(fields["pool_hit"] for fields in _acquires(cold))


def test_resubmissions_mostly_hit_the_pool(warm):
    submissions = warm.system.db.collection("submissions")
    docs = [submissions.find_one({"job_id": r.job_id})
            for r in warm.resubmissions]
    assert sum(bool(d["pool_hit"]) for d in docs) >= 0.5 * len(docs)


def test_fairness_under_the_storm(warm):
    """No team's mean queue wait exceeds 2x the global mean even with
    one team flooding the queue."""
    waits = [w for team in warm.waits.values() for w in team]
    global_mean = sum(waits) / len(waits)
    worst = max(sum(team) / len(team) for team in warm.waits.values())
    assert worst <= 2.0 * global_mean


def test_same_work_completes_in_both_modes(warm, cold):
    for storm in (warm, cold):
        assert [len(storm.first), len(storm.resubmissions),
                len(storm.flood)] == [3, 6, 6]
        assert all(status.value == "succeeded"
                   for status, *_ in storm.outcomes())


def test_prefetch_path_exercised(warm):
    assert warm.prefetched > 0


def test_shared_base_layer_saves_pull_bytes(warm):
    """Students on webgpu/rai:minimal reuse the CUDA base layer pulled for
    webgpu/rai:root (and vice versa)."""
    assert sum(w.runtime.stats()["bytes_pull_saved"]
               for w in warm.system.workers) > 0
