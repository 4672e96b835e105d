"""Warm means ready, end to end: a container is reset when its job returns
it, so the next job waits only for what is left of the reset — nothing
after a student's think time.  A saturated slot has two containers, so it
takes the one returned a job ago and pays the remainder only when that
job was shorter than a reset.  A worker's very first job takes a
container it filled its pool with at boot, and waits only for the part of
that pull and create still running.
"""

import pytest

from repro.broker.message import message_pool, reset_message_ids
from repro.container.pool import CREATE_SECONDS
from repro.core.config import WorkerConfig
from repro.core.job import JobStatus, reset_job_ids
from repro.core.system import RaiSystem
from repro.obs.context import reset_obs_ids
from repro.obs.waterfall import critical_path_report
from tests.golden import deployment

pytestmark = pytest.mark.sched

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}
ECHO = {"rai-build.yml": """\
rai:
  version: '0.1'
  image: webgpu/rai:root
commands:
  build:
    - echo ok
"""}
RESET = WorkerConfig().container_reset_seconds
CREATE = CREATE_SECONDS


def acquire_event(system, result):
    """``(time, fields)`` of the ``container.acquire`` event on the job's
    ``acquire`` span, plus its ``worker.job`` span."""
    trace = system.tracer.store.trace_for_job(result.job_id)
    job_span, = [s for s in trace.spans if s.name == "worker.job"]
    acquire, = [s for s in trace.spans if s.name == "acquire"]
    (at, _, fields), = [e for e in acquire.events
                        if e[1] == "container.acquire"]
    return at, fields, job_span


def hit_costs(system, results):
    """What each of ``results`` (in acquire order) waited for a pool hit,
    read off its ``acquire`` span."""
    return [fields["seconds"] for _, fields, _ in
            (acquire_event(system, result) for result in results)
            if fields["pool_hit"]]


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
    # The first job joined the boot pull, then waited the create out.
    _, filled, _ = acquire_event(system, first)
    assert filled["pool_hit"] is True
    assert filled["seconds"] == pytest.approx(CREATE)
    _, warm, _ = acquire_event(system, second)
    assert (warm["pool_hit"], warm["seconds"]) == (True, 0.0)
    # Nothing on the job's path is the worker's own waiting any more.
    report = critical_path_report(
        system.tracer.store.trace_for_job(second.job_id))
    stage, = [s for s in report["path"] if s["name"] == "worker.job"]
    assert stage["self_s"] == pytest.approx(0.0, abs=1e-9)
    assert report["dominant"]["name"] != "worker.job"
    pool = system.workers[0].pool
    assert (pool.misses, pool.hits, pool.hits_waited) == (0, 2, 1)
    assert hit_costs(system, (first, second)) == [filled["seconds"], 0.0]


def back_to_back(seed=7, teams=("a", "b"), files=FILES):
    """``teams`` submit at once to a one-slot worker; ``files`` is every
    team's project, or a function from team to its project."""
    system = deployment(
        num_workers=1, seed=seed,
        worker_config=WorkerConfig(max_concurrent_jobs=1))
    clients = [system.new_client(team=team) for team in teams]
    for client in clients:
        client.stage_project(files(client.team) if callable(files)
                             else files)
    results = system.run_all(c.submit() for c in clients)
    return system, sorted(results, key=lambda r: r.finished_at)


def own_source(team):
    """``FILES`` with a ``main.cu`` of the team's own, so ``make`` misses
    the build cache and really compiles."""
    return dict(FILES, **{"main.cu": FILES["main.cu"] + f"// {team}\n"})


def test_back_to_back_on_one_slot_pays_the_remainder():
    """The slot's third job takes the container its first returned: a
    build outlasts the reset, so it waits for nothing; an ``echo`` does
    not, so it waits out ``RESET - d``, ``d`` the second job's length.
    The pool used to hold one container per slot, and every queued job
    waited out the whole reset of the one just returned."""
    system, (first, second, third) = back_to_back(teams=("a", "b", "c"),
                                                  files=own_source)
    assert third.status is JobStatus.SUCCEEDED
    _, filled, first_span = acquire_event(system, first)
    _, _, second_span = acquire_event(system, second)
    assert second_span.end_time - first_span.end_time > RESET
    _, warm, _ = acquire_event(system, third)
    assert (warm["pool_hit"], warm["seconds"]) == (True, 0.0)
    pool = system.workers[0].pool
    # Three hits, and only the first waited: for the boot fill.
    assert (pool.misses, pool.hits, pool.hits_waited) == (0, 3, 1)
    assert hit_costs(system, (first, second, third)) == \
        [filled["seconds"], 0.0, 0.0]

    system, (first, second, third) = back_to_back(teams=("a", "b", "c"),
                                                  files=dict(FILES, **ECHO))
    assert third.status is JobStatus.SUCCEEDED
    _, filled, first_span = acquire_event(system, first)
    _, spare, second_span = acquire_event(system, second)
    at, warm, _ = acquire_event(system, third)
    length = second_span.end_time - first_span.end_time
    assert 0.0 < length < RESET
    assert spare["seconds"] == 0.0          # the other container filled
    assert warm["pool_hit"] is True
    assert warm["seconds"] == pytest.approx(RESET - length)
    # The slot came out of the wait exactly when the reset begun at the
    # first job's end was done.
    assert at == pytest.approx(first_span.end_time + RESET)
    pool = system.workers[0].pool
    assert (pool.misses, pool.hits, pool.hits_waited) == (0, 3, 2)
    assert hit_costs(system, (first, second, third)) == \
        [filled["seconds"], 0.0, warm["seconds"]]
    assert warm["seconds"] > 0.0


def test_same_seed_twice_is_the_same_run():
    def outcome():
        reset_message_ids()
        reset_job_ids()
        reset_obs_ids()
        message_pool._free.clear()
        system, results = back_to_back(seed=21)
        return [(r.job_id, r.worker_id, r.finished_at,
                 acquire_event(system, r)[1]["seconds"]) for r in results]

    assert outcome() == outcome()
