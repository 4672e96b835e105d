"""Job model and lifecycle."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

_next_job_id = 1


def new_job_id() -> str:
    global _next_job_id
    job_id = f"job-{_next_job_id:06d}"
    _next_job_id += 1
    return job_id


def reset_job_ids() -> None:
    global _next_job_id
    _next_job_id = 1


def advance_job_ids(next_id: int) -> None:
    """Ensure the next minted id is at least ``next_id`` (monotonic).

    A restored deployment must never reuse a pre-crash job id: the
    worker's duplicate-record fence keys on job id, so a collision would
    silently swallow a brand-new submission.
    """
    global _next_job_id
    _next_job_id = max(_next_job_id, int(next_id))


def job_id_watermark() -> int:
    """The next id this process would mint (snapshotted on checkpoint)."""
    return _next_job_id


class JobKind(enum.Enum):
    """Development run vs graded final submission (§V), or an interactive
    session (§VIII) — the same job with a command loop in the middle."""

    RUN = "run"
    SUBMIT = "submit"
    SESSION = "session"


class JobStatus(enum.Enum):
    CREATED = "created"
    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    REJECTED = "rejected"     # bad credentials / spec / rate limit
    TIMEOUT = "timeout"       # client gave up waiting for End
    DEAD_LETTERED = "dead_lettered"  # task message exhausted redelivery

    @property
    def is_terminal(self) -> bool:
        return self in (JobStatus.SUCCEEDED, JobStatus.FAILED,
                        JobStatus.REJECTED, JobStatus.TIMEOUT,
                        JobStatus.DEAD_LETTERED)


@dataclass
class Job:
    """One submission travelling through the system."""

    id: str
    kind: JobKind
    username: str
    team: Optional[str]
    upload_bucket: str
    upload_key: str
    spec_yaml: str
    access_key: str
    signature: str
    submitted_at: float
    status: JobStatus = JobStatus.CREATED
    #: Content digest of the uploaded source tree (manifest file map).
    #: Optional: pre-delta clients and dedup-off uploads omit it; when
    #: absent the wire body omits the key entirely so signatures over
    #: older messages (WAL replays) still verify.
    source_digest: Optional[str] = None
    #: ``{"id", "max_duration"}`` of a :attr:`JobKind.SESSION` request —
    #: present exactly for that kind, omitted from the wire otherwise.
    session: Optional[dict] = None

    def to_message(self) -> dict:
        """The broker message body (JSON-safe)."""
        body = {
            "job_id": self.id,
            "kind": self.kind.value,
            "username": self.username,
            "team": self.team,
            "upload_bucket": self.upload_bucket,
            "upload_key": self.upload_key,
            "spec_yaml": self.spec_yaml,
            "access_key": self.access_key,
            "signature": self.signature,
            "submitted_at": self.submitted_at,
        }
        if self.source_digest is not None:
            body["source_digest"] = self.source_digest
        if self.session is not None:
            body["session"] = self.session
        return body

    @staticmethod
    def from_message(body: dict) -> "Job":
        kind, session = JobKind(body["kind"]), body.get("session")
        if kind is JobKind.SESSION and not (
                isinstance(session, dict)
                and isinstance(session.get("id"), str)
                and isinstance(session.get("max_duration"), (int, float))):
            raise ValueError(f"malformed session request: {session!r}")
        return Job(
            id=body["job_id"],
            kind=kind,
            username=body["username"],
            team=body.get("team"),
            upload_bucket=body["upload_bucket"],
            upload_key=body["upload_key"],
            spec_yaml=body["spec_yaml"],
            access_key=body["access_key"],
            signature=body["signature"],
            submitted_at=body["submitted_at"],
            status=JobStatus.QUEUED,
            source_digest=body.get("source_digest"),
            session=session,
        )


def log_message(kind: str, t: float, worker, payload: dict) -> dict:
    """One message on a job's ``log_${job_id}`` topic, whoever sends it."""
    return {"type": kind, "t": t, "worker": worker, **payload}


_ELAPSED_RE = re.compile(r"Elapsed time:\s*([0-9.eE+-]+)\s*s")
_CORRECTNESS_RE = re.compile(r"Correctness:\s*([0-9.eE+-]+)")
_TIME_RE = re.compile(r"([0-9.]+)real\s+([0-9.]+)user\s+([0-9.]+)sys")


@dataclass
class JobResult:
    """What the client assembles from the ``log_${job_id}`` stream."""

    job_id: str
    status: JobStatus = JobStatus.QUEUED
    exit_code: Optional[int] = None
    #: (simulated time, stream, text) tuples, in arrival order.
    log: List[Tuple[float, str, str]] = field(default_factory=list)
    build_url: Optional[str] = None
    error: Optional[str] = None
    queued_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    worker_id: Optional[str] = None
    #: Team's leaderboard rank after a successful final submission.
    rank: Optional[int] = None
    #: Bytes this submission actually put on the wire (chunk delta +
    #: manifest under dedup; the full archive otherwise).
    upload_bytes: Optional[int] = None
    #: Bytes a full re-upload would have cost (archive + padding).
    upload_bytes_full: Optional[int] = None

    @property
    def succeeded(self) -> bool:
        return self.status is JobStatus.SUCCEEDED

    @property
    def queue_wait(self) -> Optional[float]:
        if self.queued_at is None or self.started_at is None:
            return None
        return self.started_at - self.queued_at

    @property
    def turnaround(self) -> Optional[float]:
        if self.queued_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.queued_at

    def stdout_text(self) -> str:
        return "".join(text for _, stream, text in self.log
                       if stream == "stdout")

    def stderr_text(self) -> str:
        return "".join(text for _, stream, text in self.log
                       if stream == "stderr")

    @property
    def internal_time(self) -> Optional[float]:
        """The student-visible internal timer (``Elapsed time: ... s``)."""
        matches = _ELAPSED_RE.findall(self.stdout_text())
        return float(matches[-1]) if matches else None

    @property
    def correctness(self) -> Optional[float]:
        matches = _CORRECTNESS_RE.findall(self.stdout_text())
        return float(matches[-1]) if matches else None

    @property
    def time_command_output(self) -> Optional[dict]:
        """Instructor-only ``/usr/bin/time`` figures from stderr."""
        match = _TIME_RE.search(self.stderr_text())
        if match is None:
            return None
        return {"real": float(match.group(1)), "user": float(match.group(2)),
                "sys": float(match.group(3))}
