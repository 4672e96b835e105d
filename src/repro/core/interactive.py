"""Interactive sessions — the paper's stated future work, implemented.

§VIII: "Future work of RAI includes allowing instructors to configure
interactive sessions to enable more debugging and profiling tools."

An interactive session gives a student a live container on a worker for a
bounded time: commands are sent one at a time over the broker and state
persists *between* commands (unlike batch jobs, where each submission gets
a fresh container).  The same sandbox contract applies — whitelisted
image, no network, memory cap — plus a session deadline and an idle
timeout so an absent student cannot squat on a GPU.

A session request *is* a job (``JobKind.SESSION``, a generated build file
that names only the image, the project upload optional), sent the way
``RaiClient.submit`` sends one and walked by the worker's one pipeline
(``repro.core.pipeline.SESSION_STAGES``); this module is the student's
end of it.  On the wire, all over ordinary broker topics:

- requests:  ``rai-interactive/sessions`` (competing consumers = workers
  with ``enable_interactive``);
- outputs:   ``log_${job_id}`` — the job vocabulary (``status`` accepted /
  running, ``log``, ``end`` with the session's ``reason``) plus one
  ``result`` per command;
- inputs:    ``log_${job_id}_in/#in`` — ``exec`` / ``detach``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.broker.client import Consumer, Producer
from repro.buildspec.parser import render_build_spec
from repro.buildspec.spec import RaiBuildSpec
from repro.core.job import JobKind, new_job_id
from repro.errors import (
    InvalidCredentials,
    RaiError,
    RateLimited,
    SubmissionRejected,
)

#: Topic session requests are published to, and the route
#: interactive-capable workers consume them from.
SESSION_TOPIC = "rai-interactive"
SESSION_ROUTE = f"{SESSION_TOPIC}/sessions"

#: Wall-clock budget of a session.
SESSION_SECONDS = 1800.0
#: The image a session's container runs.
SESSION_IMAGE = "webgpu/rai:root"

#: A session with no commands for this long is reclaimed.
DEFAULT_IDLE_SECONDS = 300.0

_session_counter = itertools.count(1)


def input_topic(job_id: str) -> str:
    """Where a session's ``exec`` / ``detach`` messages go."""
    return f"log_{job_id}_in"


@dataclass
class CommandOutcome:
    """Result of one interactive command."""

    command: str
    exit_code: int
    stdout: str
    stderr: str
    duration: float


@dataclass
class SessionTranscript:
    """Everything that happened in one session (recorded in the DB)."""

    session_id: str
    status: str = "pending"          # attached/ended/rejected/expired
    worker_id: Optional[str] = None
    outcomes: List[CommandOutcome] = field(default_factory=list)
    error: Optional[str] = None
    end_reason: Optional[str] = None


class InteractiveSession:
    """Client-side handle.

    Usage (inside a simulation process)::

        session = InteractiveSession(client)
        yield from session.start()
        outcome = yield from session.run("nvprof ./ece408 ...")
        yield from session.close()
    """

    def __init__(self, client):
        self.client = client
        self.system = client.system
        self.session_id = f"isess-{next(_session_counter):06d}"
        #: The request's job id: what ``rai trace`` / ``rai usage`` key on.
        self.job_id: Optional[str] = None
        self.transcript = SessionTranscript(session_id=self.session_id)
        self._out: Optional[Consumer] = None
        self._in: Optional[Producer] = None
        self._seq = itertools.count(1)
        self._ended = False

    @property
    def is_attached(self) -> bool:
        return self.transcript.status == "attached" and not self._ended

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        """Request a session and wait for a worker to attach (generator):
        ``RaiClient.submit``'s steps 2-5 under the session's own rate-limit
        key, then the worker's messages until it reports ``running``."""
        client = self.client
        tracer = self.system.tracer
        span = tracer.start_span(
            "client.session", kind="client",
            attributes={"user": client.username, "session": self.session_id})
        upload_key = source_digest = None
        try:
            client._authorize(f"interactive:{client.team or client.username}")
            if client.project_fs.file_count():
                upload_key, source_digest = yield from \
                    client._upload_project(JobKind.SESSION, span, self)
            else:
                self.job_id = new_job_id()
                span.set_attribute("job_id", self.job_id)
            self._in = Producer(self.system.broker, input_topic(self.job_id))
            _, self._out, _ = client._publish_job(
                span, SESSION_TOPIC, id=self.job_id, kind=JobKind.SESSION,
                # A valid spec lists a command; a session never runs it.
                spec_yaml=render_build_spec(RaiBuildSpec(
                    version="0.1", image=SESSION_IMAGE,
                    build_commands=("true",))),
                upload_key=upload_key, source_digest=source_digest,
                session={"id": self.session_id,
                         "max_duration": SESSION_SECONDS})
        except (InvalidCredentials, RateLimited, SubmissionRejected) as exc:
            return self._rejected(str(exc), span)

        refusal: List[str] = []      # the worker's stderr before any attach
        while True:
            payload = yield from self._receive()
            kind = payload.get("type")
            if kind == "status" and payload.get("status") == "running":
                self.transcript.status = "attached"
                self.transcript.worker_id = payload.get("worker")
                tracer.end_subtree(span)
                return self.transcript
            if kind == "log" and payload["stream"] == "stderr":
                refusal.append(payload["text"])
            elif kind == "end":
                return self._rejected(
                    "".join(refusal).strip() or payload.get("reason")
                    or payload.get("status", "rejected"), span)

    def run(self, command: str):
        """Execute one command in the live container (generator)."""
        if not self.is_attached:
            raise RaiError("session is not attached")
        seq = next(self._seq)
        self._in.publish({"type": "exec", "command": command, "seq": seq})
        parts = {"stdout": [], "stderr": []}
        while True:
            payload = yield from self._receive()
            kind = payload.get("type")
            if kind == "log":
                parts[payload["stream"]].append(payload["text"])
                if self.client.on_line is not None:
                    self.client.on_line(payload["stream"], payload["text"])
            elif kind == "result" and payload.get("seq") == seq:
                outcome = CommandOutcome(
                    command=command,
                    exit_code=payload["exit_code"],
                    stdout="".join(parts["stdout"]),
                    stderr="".join(parts["stderr"]),
                    duration=payload["duration"],
                )
                self.transcript.outcomes.append(outcome)
                return outcome
            elif kind == "end":
                self._mark_ended(payload)
                raise RaiError(
                    f"session ended mid-command: {payload.get('reason')}")

    def close(self):
        """Detach cleanly (generator)."""
        if self._out is None:       # already ended, or never attached
            return self.transcript
        self._in.publish({"type": "detach"})
        while not self._ended:
            payload = yield from self._receive()
            if payload.get("type") == "end":
                self._mark_ended(payload)
        return self.transcript

    # -- internals ----------------------------------------------------------

    def _receive(self):
        """Next worker message (generator); callers skip unknown kinds."""
        message = yield self._out.get()
        self._out.ack(message)
        return message.body

    def _rejected(self, error: str, span) -> SessionTranscript:
        self.transcript.status = "rejected"
        self.transcript.error = error
        self.system.tracer.end_subtree(span, status="error", message=error)
        self._teardown()
        return self.transcript

    def _mark_ended(self, payload: dict) -> None:
        self._ended = True
        self.transcript.status = "ended"
        self.transcript.end_reason = payload.get("reason")
        self._teardown()

    def _teardown(self) -> None:
        for handle in (self._out, self._in):
            if handle is not None:
                handle.close()
        self._out = self._in = None
