"""A message on a session topic that is not what the protocol says must
cost at most itself: never the worker, never the simulation.

On the session's *input* topic it is answered on the session's stderr and
the session goes on — debugging sessions must survive typos.  On the
*request* topic it takes the path every unparseable task message takes:
counted once, requeued to the dead-letter list, drained into the docdb.
"""

import pytest

from repro.core.config import WorkerConfig
from repro.core.interactive import (
    SESSION_TOPIC, InteractiveSession, input_topic)
from repro.core.system import RaiSystem

FILES = {"main.cu": "// @rai-sim quality=0.8 impl=analytic\n"}


@pytest.fixture
def system():
    system = RaiSystem(seed=5)
    system.add_worker(WorkerConfig(enable_interactive=True))
    return system


def one_session(system, inject=None):
    """Attach, optionally publish ``inject`` on the input topic, run one
    command, detach; returns (outcome of the command, stderr heard)."""
    heard = []
    client = system.new_client(
        team="t", on_line=lambda stream, text: stream == "stderr"
        and heard.append(text))
    client.stage_project(FILES)
    session = InteractiveSession(client)

    def student():
        yield from session.start()
        assert session.is_attached
        if inject is not None:
            system.broker.publish(input_topic(session.job_id), inject)
        outcome = yield from session.run("echo alive")
        transcript = yield from session.close()
        assert transcript.end_reason == "detached"
        return outcome

    return system.run(student()), heard


@pytest.mark.parametrize("body", [
    {"type": "exec"},                       # no command
    {"type": "exec", "command": ["ls"]},    # not a command line
    {"type": "resize", "rows": 24},         # not in the vocabulary
    "hello",                                # not even a mapping
    [],
])
def test_malformed_input_is_answered_and_the_session_goes_on(system, body):
    outcome, heard = one_session(system, inject=body)
    assert (outcome.exit_code, outcome.stdout) == (0, "alive\n")
    complaints = [line for line in heard if line.startswith("✗")]
    assert len(complaints) == 1
    assert complaints[0].startswith("✗ ignored malformed session message ")
    assert system.monitor.counters.get("malformed_session_messages") == 1
    worker = system.workers[0]
    assert worker.is_running and worker.active_jobs == 0
    # ...and the worker serves the next session.
    system.run(until=system.sim.now + system.config.rate_limit_seconds)
    assert one_session(system)[0].stdout == "alive\n"


@pytest.mark.parametrize("body", [
    "junk",
    {"kind": "session"},
    {"job_id": "job-9", "kind": "session", "username": "u",
     "upload_bucket": "b", "upload_key": None, "spec_yaml": "",
     "access_key": "k", "signature": "s", "submitted_at": 0.0},  # no session
])
def test_junk_on_the_request_topic_is_dead_lettered(system, body):
    system.broker.publish(SESSION_TOPIC, body)
    outcome, _ = one_session(system)
    assert outcome.stdout == "alive\n"
    worker = system.workers[0]
    assert worker.is_running and worker.active_jobs == 0
    assert system.monitor.counters.get("malformed_job_messages") == 1
    assert system.broker.dead_letter_count() == 1
    assert system.metrics.value("in_flight") == 0
    assert system.drain_dead_letters() == 1
    dead = system.db.collection("submissions").find_one(
        {"status": "dead_lettered"})
    assert dead["route"] == f"{SESSION_TOPIC}/sessions"
    assert system.db.collection("interactive_sessions").count_documents(
        {}) == 1                     # the well-formed session's, only
