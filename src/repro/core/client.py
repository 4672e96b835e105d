"""The RAI client: §V "Client Execution", implemented step by step.

1. check the project directory and find ``rai-build.yml`` (falling back to
   the Listing 1 default);
2. verify the user credentials from ``.rai.profile``;
3. pack the project into a tar and upload it to the file server (with a
   delete-after-last-use lifetime) — the paper ships a ``.tar.bz2``; here
   only the content chunks the server does not already hold travel;
4. create a job request and push it onto the queue;
5. subscribe to the ``log_${job_id}`` topic;
6. print worker messages until ``End`` arrives;
7. for final submissions, the execution time and team name land in the
   ranking database (written by the worker);
8. exit once ``End`` is received.

``submit()`` is a simulation-process generator; drive it with
``system.run(client.submit(...))`` which returns the assembled
:class:`~repro.core.job.JobResult`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.auth.profile import RaiProfile
from repro.auth.signing import sign_request
from repro.broker.client import Consumer
from repro.buildspec.defaults import DEFAULT_BUILD_YAML, FINAL_SUBMISSION_YAML
from repro.core.job import Job, JobKind, JobResult, JobStatus, new_job_id
from repro.errors import (
    BrokerError,
    InvalidCredentials,
    RateLimited,
    StorageError,
    SubmissionRejected,
)
from repro.storage.chunkstore import Manifest
from repro.vfs import VirtualFileSystem, file_digest, pack_tree

#: Files a final submission must contain (§V, Student Final Submission):
#: USAGE (how to reproduce the profile results) and report.pdf.
REQUIRED_SUBMISSION_FILES = ("USAGE", "report.pdf")

#: Upload bandwidth of the student's connection (20 MB/s).
CLIENT_BANDWIDTH_BPS = 20e6


class RaiClient:
    """The student-side command-line tool."""

    def __init__(self, system, profile: RaiProfile,
                 team: Optional[str] = None,
                 on_line: Optional[Callable[[str, str], None]] = None):
        self.system = system
        self.sim = system.sim
        self.profile = profile
        self.team = team
        #: Called with (stream, text) for every log chunk — the client
        #: "prints them to the user's screen" (§V).
        self.on_line = on_line
        self.project_fs = VirtualFileSystem(clock=lambda: self.sim.now)
        self.history: List[JobResult] = []
        #: Declared extra project bytes (datasets/checkpoints a real
        #: project would carry); counted in upload time and storage
        #: accounting without materialising content.  See StoredObject.
        self.project_padding_bytes: int = 0
        #: Manifest of the most recent successful upload — the base the
        #: next submission's chunk delta is computed against.
        self._last_manifest: Optional[Manifest] = None

    @property
    def username(self) -> str:
        return self.profile.username

    # -- project staging ------------------------------------------------------

    def stage_project(self, files: Dict[str, Union[str, bytes]],
                      clear: bool = False) -> None:
        """Write files into the local project directory."""
        if clear:
            self.project_fs.rmtree("/")
        self.project_fs.import_mapping(files, "/")

    def set_build_file(self, yaml_text: str) -> None:
        self.project_fs.write_file("/rai-build.yml", yaml_text)

    def build_file_text(self) -> Optional[str]:
        for name in ("rai-build.yml", "rai-build.yaml"):
            if self.project_fs.isfile("/" + name):
                return self.project_fs.read_text("/" + name)
        return None

    # -- the submission process ------------------------------------------------

    def submit(self, kind: JobKind = JobKind.RUN,
               wait_timeout: Optional[float] = None):
        """Generator implementing the eight client steps.

        Returns (via the process value) a :class:`JobResult`.  Local
        rejections (rate limit, bad credentials, missing final-submission
        files) produce a ``REJECTED`` result.

        ``wait_timeout`` bounds the End wait (step 6); ``None`` waits
        forever, the paper's behaviour.  On expiry the result is terminal
        with ``JobStatus.TIMEOUT`` — the job may still complete server-side,
        but this client has stopped listening.
        """
        result = JobResult(job_id="(unassigned)")
        self.history.append(result)
        tracer = self.system.tracer
        span = tracer.start_span(
            "client.submit", kind="client",
            attributes={"user": self.username, "kind": kind.value})

        def reject(exc: Exception) -> JobResult:
            result.status = JobStatus.REJECTED
            result.error = str(exc)
            result.finished_at = self.sim.now
            tracer.end_subtree(span, status="error", message=str(exc))
            return result

        # Step 1 — locate the build file (or fall back to the default).
        if self.project_fs.file_count() == 0:
            return reject(SubmissionRejected("project directory is empty"))
        spec_yaml = self.build_file_text()
        if spec_yaml is None:
            spec_yaml = DEFAULT_BUILD_YAML
            self._emit("stdout", "• no rai-build.yml found; using the "
                                 "course default\n")
        if kind is JobKind.SUBMIT:
            # The student's build file is ignored for finals (Listing 2).
            spec_yaml = FINAL_SUBMISSION_YAML
            missing = [name for name in REQUIRED_SUBMISSION_FILES
                       if not self.project_fs.isfile("/" + name)]
            if missing:
                return reject(SubmissionRejected(
                    f"final submission is missing required file(s): "
                    f"{', '.join(missing)}"))

        try:
            self._authorize(self.team or self.username)
            upload_key, source_digest = yield from self._upload_project(
                kind, span, result)
            job_id = result.job_id
            # The plane routes the publish by fair-share key (team, else
            # username) to the key's partition topic — "rai" when the
            # deployment has one partition.
            partition, task_topic = self.system.shards.route(
                self.team or self.username)
            job, consumer, publish_span = self._publish_job(
                span, task_topic, id=job_id, kind=kind, spec_yaml=spec_yaml,
                upload_key=upload_key, source_digest=source_digest)
        except (InvalidCredentials, RateLimited, SubmissionRejected) as exc:
            return reject(exc)
        result.status = JobStatus.QUEUED
        result.queued_at = self.sim.now
        events = self.system.events
        events.emit("shard.route", span=publish_span, job_id=job_id,
                    team=self.team, username=self.username,
                    topic=task_topic, partition=partition)
        events.emit("job.state_change", span=span, job_id=job_id,
                    team=self.team, status="queued",
                    username=self.username, kind=kind.value)

        wait_deadline = (self.sim.now + wait_timeout
                         if wait_timeout is not None else None)

        # Step 6 — consume messages until End (or the wait deadline).
        try:
            while True:
                get_event = consumer.get()
                if wait_deadline is None:
                    message = yield get_event
                else:
                    remaining = wait_deadline - self.sim.now
                    if remaining > 0:
                        yield self.sim.any_of(
                            [get_event, self.sim.timeout(remaining)])
                    if not get_event.triggered:
                        consumer.cancel(get_event)
                        result.status = JobStatus.TIMEOUT
                        result.error = (
                            f"timed out after {wait_timeout:.0f}s waiting "
                            f"for job completion")
                        result.finished_at = self.sim.now
                        span.add_event("wait.timeout", seconds=wait_timeout)
                        break
                    message = get_event.value
                if message is None:
                    continue
                payload = message.body
                consumer.ack(message)
                mtype = payload.get("type")
                if mtype == "log":
                    result.log.append((payload["t"], payload["stream"],
                                       payload["text"]))
                    self._emit(payload["stream"], payload["text"])
                elif mtype == "command":
                    self._emit("stdout", f"$ {payload['command']}\n")
                elif mtype == "status":
                    if payload.get("status") == "running":
                        result.status = JobStatus.RUNNING
                        result.started_at = payload["t"]
                    result.worker_id = payload.get("worker")
                elif mtype == "build":
                    result.build_url = payload["url"]
                elif mtype == "end":
                    result.status = JobStatus(payload["status"])
                    result.exit_code = payload.get("exit_code")
                    result.finished_at = payload["t"]
                    span.add_event("end.received", status=payload["status"])
                    break
        finally:
            consumer.close()
            span.set_attribute("status", result.status.value)
            if result.status is JobStatus.TIMEOUT:
                tracer.end_subtree(span, status="error",
                                   message=result.error)
            else:
                tracer.end_subtree(span)
            if result.status in (JobStatus.TIMEOUT, JobStatus.REJECTED):
                self.system.events.emit(
                    "job.state_change", span=span, job_id=job_id,
                    team=self.team, status=result.status.value,
                    client_final=True)

        # Steps 7/8 — the worker already recorded finals in the ranking DB;
        # surface the team's rank on the result for convenience.
        if kind is JobKind.SUBMIT and result.succeeded and self.team:
            result.rank = self.system.ranking.team_rank(self.team)
        return result

    # -- steps 2-5, shared with ``InteractiveSession.start`` ------------------

    def _authorize(self, rate_key: str) -> None:
        """Step 2 — verify credentials; also the 30-second rate limit."""
        self.system.keystore.verify_pair(self.profile.access_key,
                                         self.profile.secret_key)
        self.system.rate_limiter.check(rate_key)

    def _upload_project(self, kind: JobKind, span, result):
        """Step 3 — pack and upload the project (generator); mints the job
        id once the bytes are across, fills ``result``'s ``job_id`` and
        upload sizes, returns ``(upload_key, source_digest)``.  The
        archive is a plain tar chunked by content: the client computes the
        delta against its previously uploaded manifest (plus a store-side
        negotiation for chunks other uploads already hold) and transfers
        only unseen chunks and the manifest itself."""
        tracer = self.system.tracer
        archive = pack_tree(self.project_fs, "/", compression="none")
        file_digests = {
            path: file_digest(self.project_fs.read_file(path))
            for path in self.project_fs.iter_files("/")}
        manifest = Manifest.from_bytes(archive, files=file_digests)
        # The base the delta is encoded against: this client's last
        # upload when it has one, else whatever the server still holds
        # for this user (git-style negotiation — a fresh client instance
        # or a post-restore session still ships a delta).
        base = self._last_manifest
        base_kind = "local"
        if base is None:
            base = self.system.storage.negotiate_base(
                self.system.config.upload_bucket, self.username)
            base_kind = "negotiated" if base is not None else "none"
        # Chunks the delta says changed since the base; the store
        # negotiation then prunes those some *other* upload already holds
        # (and re-adds any the server has since expired) — the
        # negotiation is ground truth for the wire.
        delta = manifest.delta(base)
        wire_bytes = (self.system.storage.chunk_store.missing_bytes(manifest)
                      + manifest.delta_wire_size(base))
        full_bytes = len(archive) + self.project_padding_bytes
        upload_bytes = wire_bytes + self.project_padding_bytes
        upload_seconds = upload_bytes / CLIENT_BANDWIDTH_BPS
        upload_span = tracer.start_span(
            "client.upload", parent=span, kind="client",
            attributes={"bytes": upload_bytes, "bytes_full": full_bytes})
        upload_span.add_event("chunk.negotiation",
                              delta_chunks=len(delta),
                              wire_bytes=wire_bytes,
                              base=base_kind)
        yield self.sim.timeout(upload_seconds)
        job_id = new_job_id()
        result.job_id = job_id
        # Binds the whole trace to the job id in the trace store.
        span.set_attribute("job_id", job_id)
        upload_key = f"{self.username}/{job_id}.tar"
        try:
            self.system.storage.put_object(
                self.system.config.upload_bucket, upload_key, archive,
                metadata={"username": self.username, "team": self.team or "",
                          "kind": kind.value, "job_id": job_id},
                padding_bytes=self.project_padding_bytes, dedup=True,
                file_digests=file_digests)
        except StorageError as exc:
            upload_span.end(status="error", message=str(exc))
            raise SubmissionRejected(
                f"project upload failed: {exc}") from exc
        upload_span.end()
        self._last_manifest = manifest
        result.upload_bytes = upload_bytes
        result.upload_bytes_full = full_bytes
        self.system.monitor.incr("bytes_uploaded", upload_bytes)
        usage = self.system.usage
        tenant = self.team or self.username
        usage.record("storage_bytes_uploaded", float(upload_bytes),
                     tenant=tenant)
        if full_bytes > upload_bytes:
            usage.record("storage_bytes_saved_dedup",
                         float(full_bytes - upload_bytes), tenant=tenant)
        return upload_key, manifest.tree_digest()

    def _publish_job(self, span, topic: str, **fields):
        """Steps 4-5 — create (from ``fields``, what the caller knows of
        the :class:`Job`) and sign the request, subscribe to its log topic,
        publish it.  Returns the job, the log consumer, the publish span."""
        job = Job(username=self.username, team=self.team,
                  upload_bucket=self.system.config.upload_bucket,
                  access_key=self.profile.access_key, signature="",
                  submitted_at=self.sim.now, **fields)
        body = job.to_message()
        body.pop("signature")
        job.signature = sign_request(self.profile.secret_key, body,
                                     job.submitted_at)
        # Subscribe *before* publishing, so not even the first worker
        # message can be missed.
        consumer = Consumer(self.system.broker, f"log_{job.id}/#ch")
        publish_span = self.system.tracer.start_span(
            "client.publish", parent=span, kind="client",
            attributes={"topic": topic})
        try:
            # The publish span's context rides the message headers: the
            # broker's delivery and the worker's whole job chain onto it.
            self.system.broker.publish(topic, job.to_message(),
                                       headers=publish_span.headers())
        except BrokerError as exc:
            # The job never reached the queue; release the log subscription
            # (otherwise the ephemeral log topic is pinned forever).
            consumer.close()
            publish_span.end(status="error", message=str(exc))
            raise SubmissionRejected(
                f"job request rejected by the broker: {exc}") from exc
        publish_span.end()
        return job, consumer, publish_span

    # -- utilities (§VI) ------------------------------------------------------

    def check_ranking(self, limit: Optional[int] = None) -> List[dict]:
        """The student-facing anonymised leaderboard."""
        return self.system.ranking.anonymized_view(self.team or "", limit)

    def download_build(self, result: JobResult) -> Optional[bytes]:
        """Fetch the job's /build archive through its presigned URL."""
        if result.build_url is None:
            return None
        return self.system.storage.redeem_get(result.build_url).data

    def _emit(self, stream: str, text: str) -> None:
        if self.on_line is not None:
            self.on_line(stream, text)
