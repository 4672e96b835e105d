"""Failure injection: worker crashes and at-least-once job delivery.

§V: "Since RAI is a distributed architecture, these operations need to
happen in order and be robust to failures."  A worker that dies mid-job
never acks its message; the broker caretaker requeues it and another
worker finishes the job — the client, still subscribed to the log topic,
gets its End.
"""

import pytest

from repro.broker import broker as broker_module
from repro.core import pipeline
from repro.core.config import WorkerConfig
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.obs.span import SpanStatus
from tests.golden import deployment

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


class TestBrokerRedelivery:
    def test_stale_in_flight_requeued(self, sim):
        from repro.broker import Consumer, MessageBroker

        broker = MessageBroker(sim)
        consumer = Consumer(broker, "rai/tasks")
        broker.publish("rai", {"n": 1})

        def dead_consumer(sim):
            msg = yield consumer.get()
            # ...and never acks (crash).
            return msg.id

        proc = sim.process(dead_consumer(sim))
        sim.run(until=proc)
        assert len(broker.channel("rai/tasks").in_flight) == 1

        def advance(sim):
            yield sim.timeout(100.0)

        sim.process(advance(sim))
        sim.run()
        assert broker.requeue_stale(in_flight_timeout=50.0) == 1
        assert broker.channel("rai/tasks").depth == 1
        assert not broker.channel("rai/tasks").in_flight

    def test_fresh_in_flight_untouched(self, sim):
        from repro.broker import Consumer, MessageBroker

        broker = MessageBroker(sim)
        consumer = Consumer(broker, "rai/tasks")
        broker.publish("rai", {"n": 1})

        def holder(sim):
            msg = yield consumer.get()
            assert broker.requeue_stale(in_flight_timeout=1000.0) == 0
            consumer.ack(msg)

        sim.run(until=sim.process(holder(sim)))

    def test_caretaker_process_sweeps(self, sim):
        from repro.broker import Consumer, MessageBroker

        broker = MessageBroker(sim)
        consumer = Consumer(broker, "rai/tasks")
        broker.publish("rai", {"n": 1})

        def dead(sim):
            yield consumer.get()

        sim.run(until=sim.process(dead(sim)))
        sim.process(broker.caretaker(interval=10.0,
                                     in_flight_timeout=30.0))
        sim.run(until=100.0)
        assert broker.channel("rai/tasks").depth == 1
        assert broker.channel("rai/tasks").total_requeued == 1


class TestWorkerCrashRecovery:
    def test_job_survives_worker_crash(self):
        """The headline at-least-once path, end to end."""
        system = RaiSystem.standard(num_workers=1, seed=66)
        system.start_caretaker(interval=30.0, in_flight_timeout=600.0)
        victim = system.workers[0]

        client = system.new_client(team="resilient-team")
        client.stage_project(FILES)
        job_proc = system.sim.process(client.submit())

        def chaos(sim):
            # Let the worker take the job, then kill it mid-flight.
            yield sim.timeout(5.0)
            assert victim.active_jobs == 1
            victim.crash()
            # Replacement capacity arrives a minute later.
            yield sim.timeout(60.0)
            system.add_worker()

        system.sim.process(chaos(system.sim))
        result = system.run(job_proc)
        assert result.status is JobStatus.SUCCEEDED
        # The job ran on the replacement worker.
        assert result.worker_id != victim.id
        # The message went around twice.
        submissions = system.db.collection("submissions")
        assert submissions.find({"job_id": result.job_id,
                                 "status": "succeeded"}).count() == 1

    def test_crash_without_caretaker_leaves_job_stuck(self):
        """Negative control: no caretaker → the client waits forever."""
        system = RaiSystem.standard(num_workers=1, seed=66)
        victim = system.workers[0]
        client = system.new_client(team="t")
        client.stage_project(FILES)
        job_proc = system.sim.process(client.submit())

        def chaos(sim):
            yield sim.timeout(5.0)
            victim.crash()
            yield sim.timeout(60.0)
            system.add_worker()

        system.sim.process(chaos(system.sim))
        system.run(until=system.sim.now + 7200.0)
        assert job_proc.is_alive   # still waiting: message never requeued

    def test_graceful_stop_still_acks(self):
        """stop() (scale-in) does NOT cause redelivery."""
        system = RaiSystem.standard(num_workers=1, seed=66)
        system.start_caretaker(interval=30.0, in_flight_timeout=600.0)
        victim = system.workers[0]
        client = system.new_client(team="t")
        client.stage_project(FILES)
        job_proc = system.sim.process(client.submit())

        def scale_in(sim):
            yield sim.timeout(5.0)
            victim.stop()
            yield sim.timeout(60.0)
            system.add_worker()

        system.sim.process(scale_in(system.sim))
        result = system.run(job_proc)
        # Gracefully stopped worker reported failure itself; no retry.
        assert result.status is JobStatus.FAILED
        assert "shutting down" in result.stderr_text()

    @staticmethod
    def _session_on_two_workers(seed):
        from repro.broker.broker import MessageBroker
        from repro.core.interactive import InteractiveSession

        system = RaiSystem(seed=seed)
        for _ in range(2):
            system.add_worker(WorkerConfig(enable_interactive=True))
        system.start_caretaker(interval=30.0, in_flight_timeout=120.0)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        session = InteractiveSession(client)
        ends = []
        publish = MessageBroker.publish

        def spy(broker, topic, body, headers=None):
            if topic == f"log_{session.job_id}" and body["type"] == "end":
                ends.append((body["worker"], body["status"],
                             body.get("reason")))
            return publish(broker, topic, body, headers=headers)

        return system, session, ends, spy

    def _documents(self, system, session):
        rows = system.db.collection("interactive_sessions").find(
            {"session_id": session.session_id}).to_list()
        return [(row["worker"], row["status"], row["end_reason"])
                for row in rows]

    def test_stop_during_interactive_session_ends_it(self, monkeypatch):
        """A graceful scale-in ends a session as it fails a job: reported,
        recorded, acked — nothing left in flight."""
        from repro.broker.broker import MessageBroker

        system, session, ends, spy = self._session_on_two_workers(seed=65)
        monkeypatch.setattr(MessageBroker, "publish", spy)

        def student(sim):
            transcript = yield from session.start()
            yield from session.run("pwd")
            host, = [w for w in system.workers
                     if w.id == transcript.worker_id]
            host.stop()
            return host, (yield from session.close())

        host, transcript = system.run(student(system.sim))
        system.run(until=system.sim.now + 600.0)
        assert transcript.end_reason == "worker-stopped"
        expected = [(host.id, "failed", "worker-stopped")]
        assert ends == expected
        assert self._documents(system, session) == expected
        assert system.metrics.value("in_flight") == 0
        assert [w.active_jobs for w in system.workers] == [0, 0]

    def test_crash_during_interactive_session_ends_it(self, monkeypatch):
        """The dead worker says and records nothing; the redelivered
        request is not resumable (its container died with the worker), so
        the survivor ends it — once — instead of attaching a ghost session
        to a student who is gone."""
        from repro.broker.broker import MessageBroker

        system, session, ends, spy = self._session_on_two_workers(seed=66)
        monkeypatch.setattr(MessageBroker, "publish", spy)

        def student(sim):
            transcript = yield from session.start()
            out = yield from session.run("pwd")
            assert out.exit_code == 0
            host, = [w for w in system.workers
                     if w.id == transcript.worker_id]
            host.crash()
            assert not host.is_running
            assert ends == [] and self._documents(system, session) == []
            return host, (yield from session.close())

        host, transcript = system.run(student(system.sim))
        survivor, = [w for w in system.workers if w is not host]
        # Long enough for a ghost to have idled out and been re-served.
        system.run(until=system.sim.now + 1500.0)
        assert transcript.end_reason == "worker-lost"
        expected = [(survivor.id, "failed", "worker-lost")]
        assert ends == expected
        assert self._documents(system, session) == expected
        assert survivor.pool.misses == survivor.pool.hits == 0  # no ghost
        assert system.metrics.value("in_flight") == 0
        assert [w.active_jobs for w in system.workers] == [0, 0]
        assert system.db.collection("submissions").find({}).count() == 0


TERMINAL = {JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.REJECTED,
            JobStatus.TIMEOUT, JobStatus.DEAD_LETTERED}


def _fresh_ids():
    """Chaos runs compare job ids across runs; reset the global counters."""
    from repro.broker.message import reset_message_ids
    from repro.core.job import reset_job_ids

    reset_job_ids()
    reset_message_ids()


@pytest.mark.chaos
class TestChaosRecovery:
    """The acceptance scenario: a seeded fault plan over a full deployment.

    Every job must reach a terminal state, every job must have exactly one
    ``submissions`` record, and two runs with the same seed must produce
    identical timelines.
    """

    def _run_once(self, seed: int):
        from repro.faults import FaultPlan, StorageFault, WorkerCrashFault

        _fresh_ids()
        system = RaiSystem.standard(num_workers=2, seed=seed)
        system.start_caretaker(interval=30.0, in_flight_timeout=600.0)
        system.start_dead_letter_consumer(interval=300.0)
        system.start_fault_plan(FaultPlan(
            worker_crashes=(
                WorkerCrashFault(window=(5.0, 40.0), restart_after=45.0),),
            storage_faults=(
                StorageFault(op="get", failures_per_key=2,
                             bucket="rai-uploads"),),
        ))
        clients = []
        for i in range(6):
            client = system.new_client(team=f"team-{i:02d}")
            client.stage_project(FILES)
            clients.append(client)
        results = system.run_all(c.submit(wait_timeout=4 * 3600.0)
                                 for c in clients)
        return system, results

    def _timeline(self, results):
        return [(r.job_id, r.status.value, round(r.finished_at, 6))
                for r in results]

    def test_every_job_terminal_with_exactly_one_record(self):
        system, results = self._run_once(seed=1234)
        submissions = system.db.collection("submissions")
        assert len(results) == 6
        for result in results:
            assert result.status in TERMINAL
            assert result.finished_at is not None
            assert submissions.find({"job_id": result.job_id}).count() == 1
        # The plan actually fired: one crash, and two injected fetch
        # failures per job (each retried with backoff).
        counters = system.monitor.counters
        kinds = [e.fields["kind"]
                 for e in system.events.query(type="fault.injected")]
        assert kinds.count("worker_crash") == 1
        assert kinds.count("storage_get") == 2 * 6
        assert counters.get("storage_retries") >= 2 * 6
        # The crash was recovered from (redelivery), not double-recorded.
        assert counters.get("duplicate_records_suppressed") == 0
        assert len(system.workers) == 3   # 2 original + 1 replacement

    def test_same_seed_same_timeline(self):
        _, first = self._run_once(seed=777)
        _, second = self._run_once(seed=777)
        assert self._timeline(first) == self._timeline(second)

    def test_different_seed_different_timeline(self):
        _, first = self._run_once(seed=777)
        _, second = self._run_once(seed=778)
        assert self._timeline(first) != self._timeline(second)


@pytest.mark.chaos
class TestStorageRetryRecovery:
    def test_transient_fetch_errors_retried_to_success(self):
        from repro.faults import FaultPlan, StorageFault

        system = RaiSystem.standard(num_workers=1, seed=9)
        system.start_fault_plan(FaultPlan(storage_faults=(
            StorageFault(op="get", failures_per_key=2,
                         bucket="rai-uploads"),)))
        client = system.new_client(team="t")
        client.stage_project(FILES)
        result = system.run(client.submit())
        assert result.status is JobStatus.SUCCEEDED
        assert system.monitor.counters.get("storage_retries") == 2
        assert "retry 1/3" in result.stderr_text()
        # Backoff slept in simulated time before the job proceeded.
        assert result.finished_at > result.queued_at

    def test_transient_upload_errors_degrade_not_fail(self):
        from repro.faults import FaultPlan, StorageFault

        system = RaiSystem.standard(num_workers=1, seed=9)
        system.start_fault_plan(FaultPlan(storage_faults=(
            StorageFault(op="put", failures_per_key=2,
                         bucket="rai-builds"),)))
        client = system.new_client(team="t")
        client.stage_project(FILES)
        result = system.run(client.submit())
        # The build ran and the artifact upload eventually succeeded.
        assert result.status is JobStatus.SUCCEEDED
        assert result.build_url is not None
        assert system.monitor.counters.get("storage_retries") == 2

    def test_retry_budget_exhaustion_fails_terminally(self):
        from repro.faults import FaultPlan, StorageFault

        system = RaiSystem.standard(num_workers=1, seed=9)
        system.start_fault_plan(FaultPlan(storage_faults=(
            StorageFault(op="get", failures_per_key=99,
                         bucket="rai-uploads"),)))
        client = system.new_client(team="t")
        client.stage_project(FILES)
        result = system.run(client.submit())
        assert result.status is JobStatus.FAILED
        assert "cannot fetch project after retries" in result.stderr_text()
        submissions = system.db.collection("submissions")
        assert submissions.find({"job_id": result.job_id,
                                 "status": "failed"}).count() == 1


@pytest.mark.chaos
class TestDeadLetterPath:
    def test_poison_message_drained_into_docdb(self):
        system = RaiSystem.standard(num_workers=1, seed=3)
        system.broker.publish("rai", {"not": "a job"})
        system.run(until=1.0)
        # 5 zero-time redeliveries exhausted the attempt budget.
        assert system.broker.dead_letter_count() == 1
        assert system.queue_depth() == 0
        first_sight = [e for e in system.events.query(
            type="worker.malformed_message") if e.fields["attempts"] == 1]
        assert len(first_sight) == 1
        assert len(system.events.query(type="broker.dead_letter")) == 1

        assert system.drain_dead_letters() == 1
        assert system.broker.dead_letter_count() == 0
        doc = system.db.collection("submissions").find_one(
            {"status": "dead_lettered"})
        assert doc is not None
        assert doc["job_id"] is None
        assert doc["attempts"] == 5
        # The sweep is idempotent.
        assert system.drain_dead_letters() == 0

    def test_dead_letter_consumer_unblocks_waiting_client(self):
        from repro.broker.client import Consumer

        system = RaiSystem.standard(num_workers=1, seed=3)
        system.start_dead_letter_consumer(interval=60.0)
        job_id = "job-ghost"
        # Subscribe first, like the real client (step 5), then publish a
        # task message that carries a job_id but is otherwise unparseable.
        watcher = Consumer(system.broker, f"log_{job_id}/#watch")
        system.broker.publish("rai", {"job_id": job_id})

        def waiting_client(sim):
            message = yield watcher.get()
            watcher.ack(message)
            return message.body

        proc = system.sim.process(waiting_client(system.sim))
        end = system.run(proc)
        assert end["type"] == "end"
        assert end["status"] == "dead_lettered"
        assert "dead-lettered after 5" in end["reason"]
        doc = system.db.collection("submissions").find_one(
            {"job_id": job_id})
        assert doc["status"] == "dead_lettered"

    def test_health_report_shows_recovery_counters(self):
        from repro.core.telemetry import health_report

        system = RaiSystem.standard(num_workers=1, seed=3)
        system.broker.publish("rai", {"not": "a job"})
        system.run(until=1.0)
        system.drain_dead_letters()
        report = health_report(system)
        assert "dead letters (drained)" in report


@pytest.mark.chaos
def wait_timeouts(system, result) -> list:
    """The ``wait.timeout`` events on the job's client span."""
    trace = system.tracer.store.trace_for_job(result.job_id)
    return [fields for span in trace.spans if span.name == "client.submit"
            for _, name, fields in span.events if name == "wait.timeout"]


class TestClientWaitTimeout:
    def test_silent_worker_crash_times_out_client(self):
        """No caretaker, no redelivery: the bounded wait ends the submit."""
        system = RaiSystem.standard(num_workers=1, seed=66)
        victim = system.workers[0]
        client = system.new_client(team="t")
        client.stage_project(FILES)
        job_proc = system.sim.process(client.submit(wait_timeout=300.0))

        def chaos(sim):
            yield sim.timeout(5.0)
            victim.crash()

        system.sim.process(chaos(system.sim))
        result = system.run(job_proc)
        assert result.status is JobStatus.TIMEOUT
        assert "timed out after 300s" in result.error
        assert result.finished_at == pytest.approx(
            result.queued_at + 300.0)
        assert wait_timeouts(system, result) == [{"seconds": 300.0}]
        # The log subscription was released: nothing pins the ephemeral
        # topic once the worker-side producer is gone too.
        assert f"log_{result.job_id}" not in system.broker.topics

    def test_fast_job_unaffected_by_timeout(self):
        system = RaiSystem.standard(num_workers=1, seed=66)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        result = system.run(client.submit(wait_timeout=4 * 3600.0))
        assert result.status is JobStatus.SUCCEEDED
        assert wait_timeouts(system, result) == []


class TestPublishFailureCleanup:
    def test_rejected_publish_releases_log_subscription(self, monkeypatch):
        system = RaiSystem.standard(num_workers=1, seed=5)
        # Any job request is too big.
        monkeypatch.setattr(broker_module, "MAX_MESSAGE_BYTES", 64)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        result = system.run(client.submit())
        assert result.status is JobStatus.REJECTED
        assert "rejected by the broker" in result.error
        (publish,) = [s for s in system.tracer.store.trace_for_job(
            result.job_id).spans if s.name == "client.publish"]
        assert publish.status is SpanStatus.ERROR
        # Regression: the pre-subscribed log consumer must not pin the
        # ephemeral log topic forever.
        leaked = [name for name in system.broker.topics
                  if name.startswith("log_")]
        assert leaked == []


class TestJobDeadline:
    def test_slow_transfer_exceeds_wall_clock_deadline(self, monkeypatch):
        monkeypatch.setattr(pipeline, "JOB_DEADLINE_SECONDS", 10.0)
        system = deployment(
            num_workers=1, seed=7,
            worker_config=WorkerConfig(storage_bandwidth_bps=1e6))
        client = system.new_client(team="t")
        client.stage_project(FILES)
        client.project_padding_bytes = 50_000_000   # 50 s at 1 MB/s
        result = system.run(client.submit())
        assert result.status is JobStatus.FAILED
        assert result.exit_code == 124
        assert "deadline" in result.stderr_text()
        assert system.monitor.counters.get("jobs_deadline_exceeded") == 1
        submissions = system.db.collection("submissions")
        assert submissions.find({"job_id": result.job_id,
                                 "status": "failed"}).count() == 1
