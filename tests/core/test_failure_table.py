"""``repro.core.pipeline.FAILURES`` is the spec: every row has a case.

Each case injects its row's exception at its stage by monkeypatching what
the stage calls, then checks the terminal contract from outside the
worker: status, exit code, the exact stderr line, record present/absent,
exactly one ``End``, the container released exactly once, no span left
open, and a live worker.  The ``(span, parent, status)`` shapes pin one
span per stage reached, so an edit cannot silently drop, add or
re-parent a span.

An interactive session is a job on ``SESSION_STAGES``, so its failures are
cases here too (``session=True``): the same contract, read off the
session's ``End``, its transcript and its ``interactive_sessions`` document.
"""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broker.broker import MessageBroker
from repro.broker.topic import Channel
from repro.container.container import Container, ContainerState
from repro.container.pool import WarmContainerPool
from repro.core import pipeline
from repro.core.config import WorkerConfig
from repro.core.interactive import SESSION_TOPIC, InteractiveSession
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.errors import (
    ContainerError,
    ImageNotFound,
    InvalidCredentials,
    NoSuchKey,
    RaiError,
    SpecParseError,
    TransientStorageError,
    VfsError,
)
from repro.faults.retry import RetryPolicy
from repro.storage.object_store import ObjectStore
from tests.golden import deployment

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}
#: Deadline cases run under a job deadline shorter than the caretaker's
#: in-flight timeout, and the second upload attempt comes a full
#: deadline later.
DEADLINE = 600.0
SLOW_RETRY = RetryPolicy(base_delay=DEADLINE, max_delay=DEADLINE)


def short_deadline(patch) -> None:
    """Patch the deadline cases' job deadline and storage retry in."""
    patch.setattr(pipeline, "JOB_DEADLINE_SECONDS", DEADLINE)
    patch.setattr(pipeline, "STORAGE_RETRY", SLOW_RETRY)


def raiser(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


def only_bucket(original, bucket_of, exc):
    """``original``, except that calls on ``bucket_of(system)`` raise."""
    def patched(system):
        def fn(self, bucket, *args, **kwargs):
            if bucket == bucket_of(system):
                raise exc
            return original(self, bucket, *args, **kwargs)
        return fn
    return patched


def slow_exec(system):
    original = Container.exec_line

    def fn(self, command):
        return dataclasses.replace(original(self, command),
                                   sim_duration=DEADLINE + 400.0)
    return fn


@dataclasses.dataclass(frozen=True)
class Case:
    """One injected failure: ``row`` is the table row it must hit
    (``(stage, error type names)``; None = no row, the job survives)."""

    row: object
    target: tuple                 # (owner, attribute) to monkeypatch
    patch: object                 # system -> replacement
    line: str                     # exact stderr line expected
    status: JobStatus = JobStatus.REJECTED
    exit_code: object = None
    recorded: bool = False
    holds_container: bool = False
    deadline: bool = False        # runs under short_deadline
    shape: str = ""               # key into SHAPES
    session: bool = False         # an interactive session, not a batch job
    reason: object = None         # a recorded session's end_reason


def row_key(row):
    return (row.stage, tuple(e.__name__ for e in row.errors))


def redelivered(system):
    """Every session request arrives as a second delivery."""
    original = Channel._mark_delivered

    def fn(self, msg):
        if self.topic.name == SESSION_TOPIC:
            msg.attempts += 1
        return original(self, msg)
    return fn


def uploads(system):
    return system.config.upload_bucket


def builds(system):
    return system.config.build_bucket


ADMIT = ("admit", ("InvalidCredentials", "SignatureMismatch",
                   "BuildSpecError", "ContainerError"))
CASES = {
    "admit-spec": Case(
        ADMIT, (pipeline, "parse_build_spec"),
        lambda system: raiser(SpecParseError("bad yaml")),
        "✗ job rejected: bad yaml\n", shape="admit"),
    "admit-auth": Case(
        ADMIT, (pipeline, "verify_request"),
        lambda system: raiser(InvalidCredentials("unknown access key")),
        "✗ job rejected: unknown access key\n", shape="admit"),
    "fetch-transient": Case(
        ("fetch", ("TransientStorageError",)),
        (ObjectStore, "get_object"),
        only_bucket(ObjectStore.get_object, uploads,
                    TransientStorageError("link down")),
        "✗ cannot fetch project after retries: link down\n",
        status=JobStatus.FAILED, recorded=True, shape="fetch"),
    "fetch-gone": Case(
        ("fetch", ("StorageError",)), (ObjectStore, "get_object"),
        only_bucket(ObjectStore.get_object, uploads, NoSuchKey("expired")),
        "✗ cannot fetch project: expired\n", shape="fetch"),
    "fetch-unpack": Case(
        ("fetch", ("VfsError",)), (pipeline, "unpack_tree"),
        lambda system: raiser(VfsError("invalid archive: cut short")),
        "✗ cannot unpack project: invalid archive: cut short\n",
        shape="fetch"),
    "acquire-engine": Case(
        ("acquire", ("ContainerError",)), (WarmContainerPool, "acquire"),
        lambda system: raiser(ContainerError("engine down")),
        "✗ job rejected: engine down\n", shape="acquire"),
    "deadline-build": Case(
        (None, ("JobDeadlineExceeded",)), (Container, "exec_line"),
        slow_exec, f"✗ job exceeded its {DEADLINE:.0f}s deadline\n",
        status=JobStatus.FAILED, exit_code=124, recorded=True,
        holds_container=True, deadline=True, shape="deadline-build"),
    "deadline-upload": Case(
        (None, ("JobDeadlineExceeded",)), (ObjectStore, "put_object"),
        only_bucket(ObjectStore.put_object, builds,
                    TransientStorageError("disk full")),
        f"✗ job exceeded its {DEADLINE:.0f}s deadline\n",
        status=JobStatus.FAILED, exit_code=124, recorded=True,
        holds_container=True, deadline=True, shape="deadline-upload"),
    # Not a row: a lost artifact degrades the job, it does not fail it.
    "upload-degraded": Case(
        None, (ObjectStore, "put_object"),
        only_bucket(ObjectStore.put_object, builds,
                    TransientStorageError("disk full")),
        "⚠ build upload failed after retries: disk full\n",
        status=JobStatus.SUCCEEDED, exit_code=0, recorded=True,
        holds_container=True, shape="upload-degraded"),
    # Sessions: the same rows through the same admit / fetch / acquire.
    "session-admit-auth": Case(
        ADMIT, (pipeline, "verify_request"),
        lambda system: raiser(InvalidCredentials("unknown access key")),
        "✗ job rejected: unknown access key\n", session=True,
        shape="session-admit"),
    "session-fetch-transient": Case(
        ("fetch", ("TransientStorageError",)),
        (ObjectStore, "get_object"),
        only_bucket(ObjectStore.get_object, uploads,
                    TransientStorageError("link down")),
        "✗ cannot fetch project after retries: link down\n",
        status=JobStatus.FAILED, recorded=True, session=True,
        reason="failed", shape="session-fetch"),
    "session-fetch-missing": Case(
        ("fetch", ("StorageError",)), (ObjectStore, "get_object"),
        only_bucket(ObjectStore.get_object, uploads, NoSuchKey("expired")),
        "✗ cannot fetch project: expired\n", session=True,
        shape="session-fetch"),
    "session-acquire-unknown-image": Case(
        ("acquire", ("ContainerError",)), (WarmContainerPool, "acquire"),
        lambda system: raiser(ImageNotFound("nosuch/image:1")),
        "✗ job rejected: nosuch/image:1\n", session=True,
        shape="session-acquire"),
    "session-redelivered": Case(
        ("resume", ("SessionLost",)), (Channel, "_mark_delivered"),
        redelivered, "✗ session lost: worker failed mid-session\n",
        status=JobStatus.FAILED, recorded=True, session=True,
        reason="worker-lost", shape="session-redelivered"),
}

# (span name, parent span name, status) in creation order: one span per
# stage the job reached, under ``worker.job``, the commands under
# ``build`` / ``serve``.  A record written from a ``FAILURES`` row has no
# stage of its own: it annotates ``worker.job``.
_CLIENT = [
    ("client.submit", None, "ok"),
    ("client.upload", "client.submit", "ok"),
    ("client.publish", "client.submit", "ok"),
    ("broker.deliver", "client.publish", "ok"),
    ("worker.job", "broker.deliver", "ok"),
]
_BUILD = [
    ("admit", "worker.job", "ok"),
    ("fetch", "worker.job", "ok"),
    ("acquire", "worker.job", "ok"),
    ("build", "worker.job", "ok"),
] + [("container.exec", "build", "ok")] * 5
_END = [
    ("result.publish", "worker.job", "ok"),
    ("broker.deliver", "result.publish", "ok"),
]
_RECORD = [("record", "worker.job", "ok")]
_ADMITTED = [("admit", "worker.job", "ok")]
SHAPES = {
    "succeeded": _CLIENT + _BUILD
    + [("upload", "worker.job", "ok")] + _RECORD + _END,
    "admit": _CLIENT + [("admit", "worker.job", "error")] + _END,
    "fetch": _CLIENT + _ADMITTED + [("fetch", "worker.job", "error")] + _END,
    "acquire": _CLIENT + _BUILD[:2] + [("acquire", "worker.job", "error")]
    + _END,
    "deadline-build": _CLIENT + _BUILD[:3]
    + [("build", "worker.job", "error"), ("container.exec", "build", "ok")]
    + _END,
    "deadline-upload": _CLIENT + _BUILD
    + [("upload", "worker.job", "error")] + _END,
    "upload-degraded": _CLIENT + _BUILD
    + [("upload", "worker.job", "error")] + _RECORD + _END,
}


def _session(*worker_spans, status="error"):
    """A session's trace: the job's, under ``client.session`` (in error
    when no worker ever attached), its commands under ``serve``."""
    return [("client.session", None, status)] + [
        (name, parent and parent.replace("submit", "session"), state)
        for name, parent, state in _CLIENT[1:]] + [
        (name, "serve" if name == "container.exec" else "worker.job", state)
        for name, state in worker_spans] + _END


SHAPES.update({
    "session": _session(
        ("admit", "ok"), ("resume", "ok"), ("fetch", "ok"),
        ("acquire", "ok"), ("serve", "ok"), ("container.exec", "ok"),
        ("record", "ok"), status="ok"),
    "session-admit": _session(("admit", "error")),
    "session-fetch": _session(
        ("admit", "ok"), ("resume", "ok"), ("fetch", "error")),
    "session-acquire": _session(
        ("admit", "ok"), ("resume", "ok"), ("fetch", "ok"),
        ("acquire", "error")),
    "session-redelivered": _session(("admit", "ok"), ("resume", "error")),
})


def capture_shape(system, job_id):
    trace = system.tracer.store.trace_for_job(job_id)
    names = {span.span_id: span.name for span in trace.spans}
    return [(span.name, names.get(span.parent_id), span.status)
            for span in trace.spans]


class Probe:
    """What the deployment did, observed from outside the worker."""

    def __init__(self, patch):
        self.ends = []            # (topic, worker id) per End published
        self.acquired = []
        self.released = []
        publish = MessageBroker.publish
        acquire, release = WarmContainerPool.acquire, WarmContainerPool.release

        def spy_publish(broker, topic, body, headers=None):
            if isinstance(body, dict) and body.get("type") == "end":
                self.ends.append((topic, body["worker"]))
            return publish(broker, topic, body, headers=headers)

        def spy_acquire(pool, *args, **kwargs):
            out = acquire(pool, *args, **kwargs)
            self.acquired.append(out[0])
            return out

        def spy_release(pool, container):
            self.released.append(container)
            return release(pool, container)

        patch.setattr(MessageBroker, "publish", spy_publish)
        patch.setattr(WarmContainerPool, "acquire", spy_acquire)
        patch.setattr(WarmContainerPool, "release", spy_release)

    def assert_containers_returned(self):
        assert sorted(map(id, self.released)) == \
            sorted(map(id, self.acquired))
        assert all(c.state is not ContainerState.RUNNING
                   for c in self.acquired)


def submit(system, team="t"):
    client = system.new_client(team=team)
    client.stage_project(FILES)
    return system.run(client.submit())


def open_session(system, team="t"):
    """One whole session — attach, one command, detach — as the result a
    ``submit`` would give: what its ``End`` said, and the worker's stderr."""
    heard = []                      # stderr once attached
    client = system.new_client(
        team=team, on_line=lambda stream, text: stream == "stderr"
        and heard.append(text))
    client.stage_project(FILES)
    session = InteractiveSession(client)
    ends = []
    publish = MessageBroker.publish

    def spy(broker, topic, body, headers=None):
        if topic == f"log_{session.job_id}" and body.get("type") == "end":
            ends.append(body)
        return publish(broker, topic, body, headers=headers)

    def student():
        transcript = yield from session.start()
        try:
            if session.is_attached:
                yield from session.run("pwd")
        except RaiError:            # ended under us: stop, crash
            pass
        return (yield from session.close())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MessageBroker, "publish", spy)
        transcript = system.run(student())
    end, = ends
    stderr = (f"{transcript.error}\n" if transcript.error else "") \
        + "".join(heard)
    return SimpleNamespace(
        job_id=session.job_id, transcript=transcript, reason=end.get("reason"),
        status=JobStatus(end["status"]), exit_code=end["exit_code"],
        log=[(0.0, "stderr", line) for line in stderr.splitlines(True)],
        stderr_text=lambda: stderr)


def drive(system, session, team="t"):
    return (open_session if session else submit)(system, team)


def verdict_lines(result):
    """The worker's own verdicts on stderr (not the per-retry warnings)."""
    return [text for _, stream, text in result.log if stream == "stderr"
            and (text.startswith("✗") or "after retries" in text)]


def records(system, job_id, session=False):
    """Terminal documents for ``job_id`` — in its own collection, and
    never in the other kind's."""
    mine, other = ("interactive_sessions", "submissions") if session \
        else ("submissions", "interactive_sessions")
    assert system.db.collection(other).find({"job_id": job_id}).count() == 0
    return system.db.collection(mine).find({"job_id": job_id}).count()


def assert_all_spans_closed(system, job_id):
    trace = system.tracer.store.trace_for_job(job_id)
    assert [s.name for s in trace.spans if s.is_open] == []


def test_every_row_has_a_case():
    covered = {case.row for case in CASES.values()}
    assert {row_key(row) for row in pipeline.FAILURES} <= covered
    stages = {stage.__name__
              for stage in pipeline.STAGES + pipeline.SESSION_STAGES}
    assert {row.stage for row in pipeline.FAILURES} <= stages | {None}


def test_a_session_walks_the_jobs_own_stages():
    shared = [s for s in pipeline.SESSION_STAGES if s in pipeline.STAGES]
    assert [s.__name__ for s in shared] == \
        ["admit", "fetch", "acquire", "record"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_ends_the_job_as_the_table_says(monkeypatch, name):
    case = CASES[name]
    if case.row is not None:
        row, = [r for r in pipeline.FAILURES if row_key(r) == case.row]
        assert (row.status, row.exit_code, row.recorded) == \
            (case.status, case.exit_code, case.recorded)
    if case.deadline:
        short_deadline(monkeypatch)
    system = deployment(
        num_workers=1, seed=5,
        worker_config=WorkerConfig(enable_interactive=case.session))
    worker = system.workers[0]
    with monkeypatch.context() as patch:
        probe = Probe(patch)      # outermost: sees what the job asked for
        patch.setattr(*case.target, case.patch(system))
        result = drive(system, case.session, "bad")
    assert result.status is case.status
    assert result.exit_code == case.exit_code
    assert verdict_lines(result) == [case.line]
    assert records(system, result.job_id, case.session) == int(case.recorded)
    assert probe.ends == [(f"log_{result.job_id}", worker.id)]
    assert len(probe.acquired) == int(case.holds_container)
    probe.assert_containers_returned()
    assert worker.is_running and worker.active_jobs == 0
    assert_all_spans_closed(system, result.job_id)
    assert capture_shape(system, result.job_id) == SHAPES[case.shape]
    if case.session:
        assert result.transcript.status == "rejected"
        assert result.reason == case.reason
        good = open_session(system, "good")
        assert (good.transcript.status, good.reason) == ("ended", "detached")
        assert capture_shape(system, good.job_id) == SHAPES["session"]
        assert system.metrics.value("in_flight") == 0
    assert submit(system, "good").status is JobStatus.SUCCEEDED
    assert system.broker.dead_letter_count() == 0


def test_succeeded_and_cache_hit_trace_shapes():
    system = RaiSystem.standard(num_workers=1, seed=5)
    client = system.new_client(team="t")
    client.stage_project(FILES)
    first = system.run(client.submit())
    assert first.status is JobStatus.SUCCEEDED
    assert capture_shape(system, first.job_id) == SHAPES["succeeded"]

    def wait(sim):
        yield sim.timeout(system.config.rate_limit_seconds)

    system.run(wait(system.sim))
    again = system.run(client.submit())
    assert again.status is JobStatus.SUCCEEDED
    # A resubmission of identical sources: same spans, the cacheable
    # commands replayed from the build cache.
    assert capture_shape(system, again.job_id) == SHAPES["succeeded"]
    trace = system.tracer.store.trace_for_job(again.job_id)
    assert [s.attributes.get("cache") for s in trace.spans
            if s.name == "container.exec"] \
        == [None, "hit", "hit", None, None]    # cmake and make replayed


def test_unknown_exception_is_loud(monkeypatch):
    """No row, no rescue: a bug in a stage stops the simulation, after the
    job's terminal reply went out and its slot was freed."""
    system = RaiSystem.standard(num_workers=1, seed=5)
    monkeypatch.setattr(pipeline, "unpack_tree", raiser(ZeroDivisionError()))
    with pytest.raises(ZeroDivisionError):
        submit(system)
    assert system.workers[0].active_jobs == 0


def test_a_row_only_matches_its_stage(monkeypatch):
    """``VfsError`` is a fetch-stage outcome; raised while building it is
    a bug like any other."""
    system = RaiSystem.standard(num_workers=1, seed=5)
    monkeypatch.setattr(Container, "start", raiser(VfsError("surprise")))
    with pytest.raises(VfsError):
        submit(system)


# -- the kiwiPy contract, over generated disruptions -------------------------

DISRUPTIONS = ("none", "stop", "crash")
STAGE_NAMES = sorted({stage.__name__
                      for stage in pipeline.STAGES + pipeline.SESSION_STAGES})


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(CASES) + ["clean", "session-clean"]),
       stage=st.sampled_from(STAGE_NAMES),
       disruption=st.sampled_from(DISRUPTIONS),
       delay=st.floats(min_value=0.0, max_value=3.0))
def test_one_task_in_one_terminal_reply_out(name, stage, disruption, delay):
    """A task comes in, exactly one terminal reply goes out, and a dying
    worker loses nothing because it acks nothing: a delivery that was not
    crashed publishes exactly one End and writes at most one record; a
    crashed one publishes none, leaves its message in flight, and the
    redelivery completes the job exactly once — by running it again, or,
    for a session (whose state died with its container), by ending it as
    lost."""
    case = CASES.get(name)
    session = case.session if case else name == "session-clean"
    config = WorkerConfig(enable_interactive=session)
    system = deployment(num_workers=1, seed=11, worker_config=config)
    system.start_caretaker(interval=50.0, in_flight_timeout=3000.0)
    victim = system.workers[0]
    hit = {}

    def disrupt():
        yield system.sim.timeout(delay)
        hit["in_flight"] = victim.active_jobs > 0
        if disruption == "crash":
            victim.crash()
            # Nothing acked: the message is still the dead consumer's.
            assert system.metrics.value("in_flight") == hit["in_flight"]
        else:
            system.remove_worker(victim)
        system.add_worker(config)

    def tripwire(fn):
        def armed(run):
            if disruption != "none" and not hit \
                    and fn.__name__ == stage and run.worker is victim:
                hit["armed"] = True
                system.sim.process(disrupt())
            return fn(run)
        armed.__name__ = fn.__name__
        return armed

    wired = {fn: tripwire(fn)
             for fn in pipeline.STAGES + pipeline.SESSION_STAGES}
    with pytest.MonkeyPatch.context() as patch:
        probe = Probe(patch)
        if case:
            patch.setattr(*case.target, case.patch(system))
            if case.deadline:
                short_deadline(patch)
        patch.setattr(pipeline, "fetch", wired[pipeline.fetch])
        for stages in ("STAGES", "SESSION_STAGES"):
            patch.setattr(pipeline, stages, tuple(
                wired[fn] for fn in getattr(pipeline, stages)))
        result = drive(system, session)

    by_victim = [end for end in probe.ends if end[1] == victim.id]
    crashed_mid_job = disruption == "crash" and hit.get("in_flight")
    stopped_mid_job = disruption == "stop" and hit.get("in_flight")
    assert len(probe.ends) == 1
    assert len(by_victim) == (0 if crashed_mid_job else 1)
    assert records(system, result.job_id, session) <= 1
    if stopped_mid_job:
        assert result.status is JobStatus.FAILED
        assert "worker shutting down mid-job" in result.stderr_text()
        assert records(system, result.job_id, session) == 1
        assert not session or result.reason == "worker-stopped"
    elif crashed_mid_job and session:
        # Not resumable: the redelivery ends it, once, as lost.
        assert (result.status, result.reason) == \
            (JobStatus.FAILED, "worker-lost")
        assert records(system, result.job_id, session) == 1
    else:
        # Untouched, or redelivered to the replacement: the job's own end.
        expected = (case.status, case.exit_code, int(case.recorded)) \
            if case else (JobStatus.SUCCEEDED, 0, 1)
        assert (result.status, result.exit_code,
                records(system, result.job_id, session)) == expected
    probe.assert_containers_returned()
    assert victim.active_jobs == 0
    assert system.metrics.value("in_flight") == 0
    assert system.broker.dead_letter_count() == 0
    assert_all_spans_closed(system, result.job_id)
