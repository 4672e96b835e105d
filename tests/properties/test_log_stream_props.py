"""A job's log stream, batched per command, against the per-write stream.

The worker publishes one ``log`` message per command (its announcement
and everything it wrote) and a line written between commands at once.
The oracle is the stream before batching: one message per write, carrying
the instant of the write.  Kept here only: over generated build files and
session command loops, what the client assembles must equal it, line for
line and instant for instant, with a write over the broker's size limit
arriving split but with the same bytes.
"""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import broker as broker_module
from repro.broker.broker import MessageBroker
from repro.broker.message import encode_body
from repro.core import pipeline
from repro.core.config import WorkerConfig
from repro.core.interactive import InteractiveSession
from repro.core.job import JobStatus
from repro.core.system import RaiSystem

#: A small broker limit, so an oversized write costs a few KiB, not MiBs.
LIMIT = 4096
#: Over the limit even as plain ASCII; the ``✗`` escapes to 6 bytes each.
BIG = ("build log ✗ line\n" * 800)
FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\nint main(){}\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
    "a.txt": "alpha\n", "empty.txt": "", "big.txt": BIG,
}
#: Guest segments: stdout, an empty write (twice over), stderr with a
#: failing exit, and the oversized write.
SEGMENTS = ("echo out", "echo -n", "cat /src/empty.txt", "cat /src/a.txt",
            "cat /src/nope", "cat /src/a.txt /src/nope /src/a.txt",
            "cat /src/big.txt")
FAILING = ("cat /src/nope", "cat /src/a.txt /src/nope /src/a.txt")

lines = st.lists(st.sampled_from(SEGMENTS), min_size=1, max_size=3).map(
    " ; ".join)
builds = st.tuples(st.booleans(), st.lists(lines, min_size=1, max_size=4))


def build_file(commands):
    body = "".join(f"    - {command}\n" for command in commands)
    return ("rai:\n  version: '0.1'\n  image: webgpu/rai:root\n"
            f"commands:\n  build:\n{body}")


def merged(log):
    """Adjacent pieces of one stream at one instant, joined: a write split
    at the broker limit reads back as the write."""
    out = []
    for t, stream, text in log:
        if out and out[-1][:2] == (t, stream):
            out[-1] = (t, stream, out[-1][2] + text)
        else:
            out.append((t, stream, text))
    return [entry for entry in out if entry[2]]


class Recorder:
    """Every write as the per-write stream carried it, every command's end,
    and every body published on a log topic."""

    def __init__(self):
        self.writes, self.published = [], []
        log, done, publish = (pipeline.JobRun.log,
                              pipeline.JobRun.command_done,
                              MessageBroker.publish)
        recorder = self

        def record_log(run, stream, text):
            recorder.writes.append((run.job.id, run.worker.sim.now, stream,
                                    text, run.batch is None))
            return log(run, stream, text)

        def record_done(run, command):
            recorder.writes.append((run.job.id, None, "done", command, False))
            return done(run, command)

        def record_publish(broker, topic, body, headers=None):
            message = publish(broker, topic, body, headers)
            if topic.startswith("log_"):
                recorder.published.append((topic, body))
            return message

        self.patches = [
            mock.patch.object(pipeline.JobRun, "log", record_log),
            mock.patch.object(pipeline.JobRun, "command_done", record_done),
            mock.patch.object(MessageBroker, "publish", record_publish),
            mock.patch.object(broker_module, "MAX_MESSAGE_BYTES", LIMIT)]

    def __enter__(self):
        for patch in self.patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in reversed(self.patches):
            patch.stop()

    def oracle(self, job_id):
        return [(t, stream, text) for job, t, stream, text, _ in self.writes
                if job == job_id and t is not None]

    def between_commands(self, job_id):
        return sum(1 for job, t, _, _, outside in self.writes
                   if job == job_id and t is not None and outside)

    def bodies(self, job_id):
        return [body for topic, body in self.published
                if topic == f"log_{job_id}"]


def check_stream(recorder, job_id, client_log, commands_run):
    oracle = recorder.oracle(job_id)
    bodies = recorder.bodies(job_id)
    assert all(len(encode_body(body)) <= LIMIT for body in bodies)
    assert merged(client_log) == merged(oracle)
    logs = [body for body in bodies if body["type"] == "log"]
    assert sum("command" in body for body in logs) == commands_run
    if not any(text == BIG for _, _, text in oracle):
        assert client_log == oracle
        assert len(logs) == commands_run + recorder.between_commands(job_id)
    else:
        assert len(logs) > commands_run + recorder.between_commands(job_id)
    return Counter(body["type"] for body in bodies if body["type"] != "log")


@settings(max_examples=12)
@given(builds)
def test_submissions_read_back_the_per_write_stream(build):
    with_cache, commands = build
    if with_cache:      # the second job replays both from the build cache
        commands = ["cmake /src", "make"] + commands
    failing = [i for i, command in enumerate(commands)
               if command.rsplit(" ; ", 1)[-1] in FAILING]
    runs = failing[0] + 1 if failing else len(commands)
    system = RaiSystem.standard(num_workers=1, seed=5)
    client = system.new_client(team="t")
    client.stage_project(dict(FILES, **{
        "rai-build.yml": build_file(commands)}))
    with Recorder() as recorder:
        first = system.run(client.submit())     # joins the boot pull
        system.run(until=system.sim.now + 60)   # past the rate limit
        second = system.run(client.submit())
    assert any(text.startswith("Pulling image")
               for _, _, text in first.log)
    for result in (first, second):
        assert result.status is (JobStatus.FAILED if failing
                                 else JobStatus.SUCCEEDED)
        fixed = check_stream(recorder, result.job_id, result.log, runs)
        assert fixed == {"status": 2, "build": 1, "end": 1}
    if failing:
        assert second.log[-1][2] == "✗ command exited with status 1\n"
    if with_cache:
        assert system.build_cache.stats()["hits"] >= 2


@settings(max_examples=8)
@given(st.lists(lines, min_size=1, max_size=4))
def test_session_outcomes_read_back_the_per_write_stream(commands):
    system = RaiSystem(seed=5)
    system.add_worker(WorkerConfig(enable_interactive=True))
    client = system.new_client(team="t")
    client.stage_project(FILES)
    session = InteractiveSession(client)

    def student(sim):
        yield from session.start()
        outcomes = []
        for command in commands:
            outcomes.append((yield from session.run(command)))
        yield from session.close()
        return outcomes

    with Recorder() as recorder:
        outcomes = system.run(student(system.sim))
    per_command, current = [], []
    for job, _, stream, text, outside in recorder.writes:
        if job != session.job_id or outside:    # the pull notice
            continue
        if stream == "done":
            per_command.append(current)
            current = []
        else:
            current.append((stream, text))
    assert len(per_command) == len(commands)
    for outcome, writes in zip(outcomes, per_command):
        assert outcome.stdout == "".join(
            text for stream, text in writes if stream == "stdout")
        assert outcome.stderr == "".join(
            text for stream, text in writes if stream == "stderr")
    bodies = recorder.bodies(session.job_id)
    assert all(len(encode_body(body)) <= LIMIT for body in bodies)
    assert sum("command" in body for body in bodies
               if body["type"] == "log") == len(commands)
    assert Counter(body["type"] for body in bodies
                   if body["type"] != "log") == Counter(
        status=2, result=len(commands), end=1)
