"""Tests for interactive sessions (§VIII future work, implemented)."""

import pytest

from repro.core.config import WorkerConfig
from repro.core.interactive import (
    DEFAULT_IDLE_SECONDS,
    InteractiveSession,
    reset_session_ids,
)
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.errors import RaiError

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


@pytest.fixture(autouse=True)
def _reset_ids():
    reset_session_ids()


@pytest.fixture
def system():
    s = RaiSystem(seed=55)
    s.add_worker(WorkerConfig(enable_interactive=True))
    return s


@pytest.fixture
def client(system):
    c = system.new_client(team="interactive-team")
    c.stage_project(FILES)
    return c


def drive(system, generator):
    return system.run(generator)


class TestSessionLifecycle:
    def test_full_debugging_workflow(self, system, client):
        """The use case §VIII motivates: iterative build/profile/inspect."""
        session = InteractiveSession(client)

        def student(sim):
            yield from session.start()
            assert session.is_attached
            build = yield from session.run("cmake /src && make")
            assert build.exit_code == 0
            run = yield from session.run(
                "./ece408 /data/test10.hdf5 /data/model.hdf5")
            assert "Correctness:" in run.stdout
            profile = yield from session.run(
                "nvprof ./ece408 /data/test10.hdf5 /data/model.hdf5")
            assert "Profiling result" in profile.stderr
            transcript = yield from session.close()
            return transcript

        transcript = drive(system, student(system.sim))
        assert transcript.status == "ended"
        assert transcript.end_reason == "detached"
        assert len(transcript.outcomes) == 3

    def test_state_persists_between_commands(self, system, client):
        """The defining difference from batch jobs."""
        session = InteractiveSession(client)

        def student(sim):
            yield from session.start()
            yield from session.run("echo sticky > /build/note.txt")
            readback = yield from session.run("cat /build/note.txt")
            yield from session.close()
            return readback

        outcome = drive(system, student(system.sim))
        assert outcome.stdout == "sticky\n"

    def test_recorded_in_database(self, system, client):
        session = InteractiveSession(client)

        def student(sim):
            yield from session.start()
            yield from session.run("pwd")
            yield from session.close()

        drive(system, student(system.sim))
        row = system.db.collection("interactive_sessions").find_one(
            {"session_id": session.session_id})
        assert row["end_reason"] == "detached"
        assert row["commands"][0]["command"] == "pwd"

    def test_run_before_start_rejected(self, system, client):
        session = InteractiveSession(client)
        with pytest.raises(RaiError):
            next(session.run("ls"))


class TestSessionLimits:
    def test_idle_timeout_reclaims_worker(self, system, client):
        session = InteractiveSession(client)

        def student(sim):
            yield from session.start()
            yield sim.timeout(DEFAULT_IDLE_SECONDS + 60)
            # Session is gone by now; a run attempt must fail.
            return session

        drive(system, student(system.sim))
        row = system.db.collection("interactive_sessions").find_one({})
        assert row["end_reason"] == "idle-timeout"

    def test_session_deadline(self, system, client):
        session = InteractiveSession(client, max_duration=100.0)

        def student(sim):
            yield from session.start()
            outcome = yield from session.run("sleep 90")
            # next wait exceeds the deadline
            yield sim.timeout(30)
            return outcome

        drive(system, student(system.sim))
        row = system.db.collection("interactive_sessions").find_one({})
        assert row["end_reason"] == "session-deadline"

    def test_sandbox_contract_holds(self, system, client):
        """No network, read-only /src — same as batch (§V)."""
        session = InteractiveSession(client)

        def student(sim):
            yield from session.start()
            net = yield from session.run("curl http://example.com")
            ro = yield from session.run("rm -f /src/main.cu")
            alive = yield from session.run("cat /src/main.cu")
            yield from session.close()
            return net, ro, alive

        net, ro, alive = drive(system, student(system.sim))
        assert net.exit_code != 0
        assert ro.exit_code != 0
        assert "@rai-sim" in alive.stdout

    def test_bad_credentials_rejected(self, system):
        from repro.auth.profile import RaiProfile
        from repro.core.client import RaiClient

        intruder = RaiClient(system, RaiProfile("x", "bad", "keys"),
                             team="t")
        intruder.stage_project(FILES)
        session = InteractiveSession(intruder)

        def attempt(sim):
            transcript = yield from session.start()
            return transcript
            yield  # keep generator shape

        transcript = drive(system, attempt(system.sim))
        assert transcript.status == "rejected"

    def test_unwhitelisted_image_rejected(self, system, client):
        session = InteractiveSession(client, image="sketchy/custom:latest")

        def attempt(sim):
            return (yield from session.start())

        transcript = drive(system, attempt(system.sim))
        assert transcript.status == "rejected"
        assert "whitelist" in transcript.error


class TestCoexistence:
    def test_batch_jobs_still_served(self, system, client):
        """An interactive-enabled worker serves both queues."""
        session = InteractiveSession(client)
        batch_client = system.new_client(team="batch-team")
        batch_client.stage_project(FILES)

        def student(sim):
            yield from session.start()
            yield from session.run("echo interactive")
            yield from session.close()

        def batcher(sim):
            return (yield from batch_client.submit())

        results = system.run_all([student(system.sim),
                                  batcher(system.sim)])
        assert results[1].status is JobStatus.SUCCEEDED

    def test_non_interactive_workers_ignore_sessions(self):
        system = RaiSystem(seed=1)
        system.add_worker(WorkerConfig(enable_interactive=False))
        client = system.new_client(team="t")
        client.stage_project(FILES)
        session = InteractiveSession(client)

        def attempt(sim):
            start = sim.process(session.start())
            # Nobody will ever attach; give it a bounded wait.
            yield sim.timeout(600)
            return start.is_alive

        still_waiting = system.run(attempt(system.sim))
        assert still_waiting   # request queued, no worker took it


def test_example_prints_its_transcript(capsys):
    """``examples/interactive_session.py`` end to end, as a reader runs it."""
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                        "interactive_session.py")
    spec = importlib.util.spec_from_file_location("example_session", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    example.main()
    out = capsys.readouterr().out
    assert "attached to worker-" in out
    assert "Built target ece408" in out and "Correctness: 1.0000" in out
    assert "[exit 101 — network stays off, even interactively]" in out
    assert "session ended: detached; 7 commands, recorded in the DB as " \
           "isess-000001" in out
    assert out.endswith("database transcript rows: 7\n")
