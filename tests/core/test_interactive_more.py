"""Additional interactive-session coverage."""

import pytest

from repro.core.config import WorkerConfig
from repro.core.interactive import InteractiveSession, reset_session_ids
from repro.core.system import RaiSystem

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


@pytest.fixture(autouse=True)
def _reset_ids():
    reset_session_ids()


@pytest.fixture
def system():
    s = RaiSystem(seed=77)
    s.add_worker(WorkerConfig(enable_interactive=True))
    return s


class TestSessionVariants:
    def test_session_without_project_upload(self, system):
        client = system.new_client(team="t")
        session = InteractiveSession(client, upload_project=False)

        def student(sim):
            yield from session.start()
            no_src = yield from session.run("ls /src")
            data = yield from session.run("ls /data")
            yield from session.close()
            return no_src, data

        no_src, data = system.run(student(system.sim))
        assert no_src.exit_code != 0          # nothing mounted at /src
        assert "model.hdf5" in data.stdout    # image data still there

    def test_sequential_sessions_reuse_worker(self, system):
        client = system.new_client(team="t")
        client.stage_project(FILES)

        def one_session(sim, marker):
            session = InteractiveSession(client)
            yield from session.start()
            outcome = yield from session.run(f"echo {marker}")
            yield from session.close()
            return outcome

        def student(sim):
            first = yield from one_session(sim, "first")
            yield sim.timeout(40)   # respect the session rate limit
            second = yield from one_session(sim, "second")
            return first, second

        first, second = system.run(student(system.sim))
        assert first.stdout == "first\n"
        assert second.stdout == "second\n"
        rows = system.db.collection("interactive_sessions").find({})
        assert rows.count() == 2

    def test_sessions_rate_limited_per_team(self, system):
        client = system.new_client(team="t")
        client.stage_project(FILES)

        def student(sim):
            first = InteractiveSession(client)
            yield from first.start()
            yield from first.close()
            # Force an immediate retry (the first start consumed >30 s of
            # simulated time on the image pull, so rewind the limiter).
            system.rate_limiter._last_accepted["interactive:t"] = sim.now
            second = InteractiveSession(client)
            transcript = yield from second.start()
            return transcript

        transcript = system.run(student(system.sim))
        assert transcript.status == "rejected"
        assert "rate limited" in transcript.error

    def test_oom_in_session_ends_it(self, system):
        client = system.new_client(team="t")
        client.stage_project({
            "main.cu": "// @rai-sim quality=0.5 mem_gb=32\n",
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
        })
        session = InteractiveSession(client)

        def student(sim):
            yield from session.start()
            yield from session.run("cmake /src && make")
            hog = yield from session.run(
                "./ece408 /data/test10.hdf5 /data/model.hdf5")
            transcript = yield from session.close()
            return hog, transcript

        hog, transcript = system.run(student(system.sim))
        assert hog.exit_code == 137
        assert transcript.end_reason == "container-oom-killed"

    def test_transcript_records_outcomes_in_order(self, system):
        client = system.new_client(team="t")
        client.stage_project(FILES)
        session = InteractiveSession(client)

        def student(sim):
            yield from session.start()
            for command in ("pwd", "ls /data", "hostname"):
                yield from session.run(command)
            return (yield from session.close())

        transcript = system.run(student(system.sim))
        assert [o.command for o in transcript.outcomes] == \
            ["pwd", "ls /data", "hostname"]
        assert all(o.exit_code == 0 for o in transcript.outcomes)


def one_session(system, client, commands=("pwd",)):
    session = InteractiveSession(client)

    def student(sim):
        yield from session.start()
        assert session.is_attached, session.transcript.error
        for command in commands:
            yield from session.run(command)
        yield from session.close()
        return session

    return system.run(student(system.sim))


def acquire_seconds(system, session):
    job_span, = system.tracer.trace_for_job(session.job_id).find("worker.job")
    fields, = [fields for _, name, fields in job_span.events
               if name == "container.acquire"]
    assert fields["pool_hit"] is True
    return fields["seconds"]


class TestSessionIsAJob:
    """What a session gets by being a job on the stage list — each of these
    failed when ``interactive._serve_one`` was its own copy of the worker."""

    def test_transient_fetch_fault_is_retried(self, system):
        from repro.errors import TransientStorageError

        faults = []

        def link_down_once(op, bucket, key):
            if op == "get" and bucket == system.config.upload_bucket \
                    and not faults:
                faults.append(key)
                raise TransientStorageError("link down")

        system.storage.fault_hook = link_down_once
        client = system.new_client(team="t")
        client.stage_project(FILES)
        session = one_session(system, client)
        assert len(faults) == 1
        assert session.transcript.end_reason == "detached"
        assert system.monitor.counters.get("storage_retries") == 1
        trace = system.tracer.trace_for_job(session.job_id)
        fetch, = trace.find("storage.get")
        assert [name for _, name, _ in fetch.events] == ["retry"]

    def test_second_session_is_a_warm_pool_hit(self, system):
        client = system.new_client(team="t")
        client.stage_project(FILES)
        worker = system.workers[0]
        first = one_session(system, client)
        assert (worker.pool.misses, worker.pool.hits) == (1, 0)
        system.run(until=system.sim.now + system.config.rate_limit_seconds)
        second = one_session(system, client)
        assert (worker.pool.misses, worker.pool.hits) == (1, 1)
        # The container was reset while the student was away.
        assert acquire_seconds(system, second) == 0.0
        assert worker.pool.hits_waited == 0
        # Same tree, same worker: the second fetch moved no chunk, and the
        # second upload was a delta against the first.
        assert worker.fetch_cache_hit_bytes > 0
        assert second.upload_bytes < first.upload_bytes

    def test_session_queued_behind_another_waits_out_the_reset(self, system):
        """Sessions run one at a time per worker: one requested while
        another is attached takes the container over the instant it is
        returned, and pays what is left of its reset — the same
        ``acquire`` stage, the same pool, as a batch job."""
        sessions = []
        for team in ("early", "late"):
            client = system.new_client(team=team)
            client.stage_project(FILES)
            sessions.append(InteractiveSession(client))
        early, late = sessions

        def first(sim):
            yield from early.start()
            yield sim.timeout(5.0)      # ``late`` asks meanwhile
            yield from early.close()

        def second(sim):
            yield sim.timeout(1.0)
            yield from late.start()
            assert late.is_attached, late.transcript.error
            yield from late.close()

        system.run_all([first(system.sim), second(system.sim)])
        worker = system.workers[0]
        assert (worker.pool.misses, worker.pool.hits) == (1, 1)
        reset = worker.config.container_reset_seconds
        assert 0.0 < acquire_seconds(system, late) <= reset
        assert worker.pool.hits_waited == 1

    def test_one_trace_one_usage_record_nothing_left_behind(self, system):
        client = system.new_client(team="debuggers")
        client.stage_project(FILES)
        session = one_session(system, client, ("pwd", "ls /data", "hostname"))
        trace = system.tracer.trace_for_job(session.job_id)
        assert [s.name for s in trace.spans if s.is_open] == []
        job_span, = trace.find("worker.job")
        children = [s.name for s in trace.children_of(job_span)]
        assert children.count("container.exec") == 3
        assert children.count("storage.get") == 1
        assert "container.acquire" in [name for _, name, _ in job_span.events]
        statuses = [e.fields["status"] for e in system.events.query(
            type="job.state_change", job_id=session.job_id)]
        assert statuses == ["accepted", "running", "succeeded"]
        exemplar, = system.usage.jobs.values()
        assert (exemplar.job_id, exemplar.tenant) == \
            (session.job_id, "debuggers")
        assert exemplar.container_seconds > 0
        assert exemplar.trace_id == trace.trace_id
        assert system.usage.tenant_total("debuggers", "slot_seconds") > \
            system.usage.tenant_total("debuggers", "container_seconds")
        assert system.usage.tenant_total(
            "debuggers", "storage_bytes_uploaded") > 0
        worker = system.workers[0]
        assert worker.active_jobs == 0 and worker.busy_seconds > 0
        assert system.metrics.value("in_flight") == 0

    def test_session_is_not_graded(self, system, monkeypatch):
        """No submission, no ranking entry, no success-SLO sample, and no
        runtime sample for the scheduler: half an hour at a prompt must
        not become the team's shortest-job-first estimate."""
        noted = []
        monkeypatch.setattr(
            type(system.shards), "note_completion",
            lambda self, key, seconds: noted.append((key, seconds)))
        client = system.new_client(team="t")
        client.stage_project(FILES)
        one_session(system, client)
        assert noted == []
        assert system.db.collection("submissions").count_documents({}) == 0
        assert system.ranking.team_rank("t") is None
        assert system.metrics.total("jobs_finished") == 0
        assert system.monitor.counters.get("jobs_recorded") == 0
        row, = system.db.collection("interactive_sessions").find({}).to_list()
        assert row["status"] == "succeeded" and row["job_id"]

    def test_cost_books_balance_with_jobs_and_sessions_mixed(self):
        from repro.cluster.provisioner import Provisioner
        from repro.core.config import SystemConfig

        system = RaiSystem(seed=79, config=SystemConfig(
            usage_window_seconds=600.0))
        provisioner = Provisioner(system)
        provisioner.launch_many(2, instance_type="p2.xlarge", boot_delay=1.0)
        system.add_worker(WorkerConfig(enable_interactive=True))
        system.run(until=5)
        debugger = system.new_client(team="debuggers")
        debugger.stage_project(FILES)
        batch = system.new_client(team="batchers")
        batch.stage_project(FILES)
        session = InteractiveSession(debugger)

        def student(sim):
            yield from session.start()
            yield from session.run("cmake /src && make")
            for _ in range(3):              # think, across a cost window
                yield sim.timeout(250.0)
                yield from session.run("./ece408 /data/test10.hdf5 "
                                       "/data/model.hdf5")
            yield from session.close()

        def batcher(sim):
            for _ in range(3):
                yield from batch.submit()
                yield sim.timeout(300.0)

        system.run_all([student(system.sim), batcher(system.sim)])
        for team in ("debuggers", "batchers"):
            assert system.usage.tenant_total(team, "container_seconds") > 0
        view = system.cost_allocator.preview()
        assert view["attributed_total"] + view["idle_cost"] == \
            pytest.approx(provisioner.total_cost(), abs=1e-6)
