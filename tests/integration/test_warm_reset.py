"""Warm means ready, end to end: a container is reset when its job returns
it, so the next job waits only for what is left of the reset — nothing
after a student's think time, the remainder on a saturated slot."""

import pytest

from repro.broker.message import message_pool, reset_message_ids
from repro.core.config import WorkerConfig
from repro.core.job import JobStatus, reset_job_ids
from repro.core.system import RaiSystem
from repro.obs.context import reset_obs_ids
from repro.obs.waterfall import critical_path_report

pytestmark = pytest.mark.sched

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}
RESET = WorkerConfig().container_reset_seconds


def acquire_event(system, result):
    """``(time, fields)`` of the job's ``container.acquire`` span event,
    plus its ``worker.job`` span."""
    trace = system.tracer.trace_for_job(result.job_id)
    job_span, = trace.find("worker.job")
    (at, _, fields), = [e for e in job_span.events
                        if e[1] == "container.acquire"]
    return at, fields, job_span


def test_resubmission_after_think_time_waits_for_no_reset():
    system = RaiSystem.standard(num_workers=1, seed=7)
    client = system.new_client(team="t")
    client.stage_project(FILES)

    def student(sim):
        first = yield from client.submit()
        yield sim.timeout(system.config.rate_limit_seconds)
        client.stage_project({"note.txt": "second try\n"})
        return first, (yield from client.submit())

    first, second = system.run(student(system.sim))
    assert second.status is JobStatus.SUCCEEDED
    _, cold, _ = acquire_event(system, first)
    assert (cold["pool_hit"], cold["seconds"]) == (False, 2.0)
    _, warm, _ = acquire_event(system, second)
    assert (warm["pool_hit"], warm["seconds"]) == (True, 0.0)
    # Nothing on the job's path is the worker's own waiting any more.
    report = critical_path_report(system.tracer.trace_for_job(second.job_id))
    stage, = [s for s in report["path"] if s["name"] == "worker.job"]
    assert stage["self_s"] == pytest.approx(0.0, abs=1e-9)
    assert report["dominant"]["name"] != "worker.job"
    pool = system.workers[0].pool
    assert (pool.hits, pool.hits_waited, pool.hit_wait_seconds) == (1, 0, 0.0)
    warm_hist = system.metrics.histogram("container_acquire_seconds",
                                         outcome="warm")
    assert warm_hist.buckets[0] == 0.0 and warm_hist.bucket_counts[0] == 1


def back_to_back(seed=7):
    """Two teams submit at once to a one-slot worker."""
    system = RaiSystem.standard(
        num_workers=1, seed=seed,
        worker_config=WorkerConfig(max_concurrent_jobs=1))
    clients = [system.new_client(team=team) for team in ("a", "b")]
    for client in clients:
        client.stage_project(FILES)
    results = system.run_all(c.submit() for c in clients)
    return system, sorted(results, key=lambda r: r.finished_at)


def test_back_to_back_on_one_slot_pays_the_remainder():
    system, (first, second) = back_to_back()
    assert second.status is JobStatus.SUCCEEDED
    _, _, first_span = acquire_event(system, first)
    at, warm, _ = acquire_event(system, second)
    assert warm["pool_hit"] is True
    assert 0.0 < warm["seconds"] <= RESET
    # The slot took the container back at once, so it came out of the
    # wait exactly when the reset begun at the first job's end was done.
    assert at == pytest.approx(first_span.end_time + RESET)
    pool = system.workers[0].pool
    assert (pool.hits, pool.hits_waited) == (1, 1)
    assert pool.hit_wait_seconds == warm["seconds"]
    hit, = system.events.query(type="pool.hit")
    assert hit.fields["cost"] == warm["seconds"]
    warm_hist = system.metrics.histogram("container_acquire_seconds",
                                         outcome="warm")
    assert warm_hist.bucket_counts[0] == 0 and warm_hist.count == 1


def test_same_seed_twice_is_the_same_run():
    def outcome():
        reset_message_ids()
        reset_job_ids()
        reset_obs_ids()
        message_pool.clear()
        system, results = back_to_back(seed=21)
        return [(r.job_id, r.worker_id, r.finished_at,
                 acquire_event(system, r)[1]["seconds"]) for r in results]

    assert outcome() == outcome()
