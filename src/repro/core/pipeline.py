"""One job delivery as an ordered list of stages over one :class:`JobRun`.

:data:`STAGES` is the paper's §V sequence (see ``repro.core.worker`` for
the step-to-stage map); each stage waits in simulated time (a generator,
or a plain function when it never waits) and raises typed errors.
:data:`SESSION_STAGES` is the same sequence for an interactive session
(§VIII): the very same ``admit`` / ``fetch`` / ``acquire`` / ``record``,
with ``serve`` — the command loop — for ``build`` and ``upload``.
:data:`FAILURES` is the only place a stage error becomes a terminal
outcome — *what status does X produce, and is it recorded?* is answered
there and nowhere else.  ``Interrupt`` (worker stop / crash) is control
flow, handled by ``RaiWorker._process_job``; an error with no row
propagates, because a bug should be loud.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.auth.signing import verify_request
from repro.broker.client import Consumer, Producer
from repro.buildspec.parser import parse_build_spec
from repro.buildspec.spec import command_cacheable
from repro.container.container import ContainerState
from repro.container.volumes import VolumeMount, cuda_volume
from repro.core.interactive import DEFAULT_IDLE_SECONDS, input_topic
from repro.core.job import (
    Job, JobKind, JobStatus, log_message, _CORRECTNESS_RE, _ELAPSED_RE,
    _TIME_RE)
from repro.errors import (
    BuildSpecError, ContainerError, InvalidCredentials, JobDeadlineExceeded,
    SessionLost, SignatureMismatch, StorageError, TransientStorageError,
    VfsError)
from repro.storage.buildcache import image_cache_key
from repro.storage.chunkstore import digest_file_map
from repro.vfs import VirtualFileSystem, file_digest, pack_tree, unpack_tree

#: ``container_acquire_seconds`` bounds, fine below a second: a warm hit's
#: charge is 0, part of a reset, or (0.2 s by default) a whole one, and
#: the three should not share a bucket with each other or a cold create.
ACQUIRE_BUCKETS = (0.0, 0.05, 0.1, 0.15, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0)


class JobRun:
    """Everything one delivery of one job owns, from claim to ``End``."""

    def __init__(self, worker, job: Job, message):
        limit = worker.config.job_deadline_seconds
        self.worker = worker
        self.job = job
        self.attempt = message.attempts
        self.started_at = worker.sim.now
        self.deadline = self.started_at + limit if limit is not None else None
        # Parent on the message headers: the broker.deliver span the
        # channel minted on claim (or the client's publish span if this
        # message never carried delivery tracing).
        self.span = worker.system.tracer.start_span(
            "worker.job", parent=message.headers, kind="worker",
            attributes={"worker": worker.id, "attempt": message.attempts},
            job_id=job.id)
        self.producer = Producer(worker.system.broker, f"log_{job.id}")
        self.outputs: List[tuple] = []
        self.stage: Optional[str] = None
        self.status = JobStatus.FAILED
        self.exit_code: Optional[int] = None
        self.build_url = self.pool_hit = self.container = None
        self.spec = self.project_fs = self.source_digest = None
        # Usage tallies, folded into ONE meter call when the job finishes
        # (metering must stay off the per-command path).
        self.exec_seconds = self.saved_seconds = 0.0
        self.fetch_bytes = self.upload_bytes = 0
        # Picked here, once: no stage asks what kind of job it serves.
        self.stages, self.write_record = STAGES, record_submission
        self.reason: Optional[str] = None   # a session's: rides its End
        if job.kind is JobKind.SESSION:
            self.stages = SESSION_STAGES if job.upload_key else tuple(
                stage for stage in SESSION_STAGES if stage is not fetch)
            self.write_record = record_session
            self.commands: List[dict] = []

    def publish(self, kind: str, _headers=None, **payload) -> None:
        worker = self.worker
        self.producer.publish(
            log_message(kind, worker.sim.now, worker.id, payload),
            headers=_headers)

    def log(self, stream: str, text: str) -> None:
        self.outputs.append((stream, text))
        self.publish("log", stream=stream, text=text)

    def check_deadline(self) -> None:
        """Raise once the paper's 1-hour cap, applied wall-clock, has
        passed; the overrun is noted here, where it is detected."""
        worker = self.worker
        if self.deadline is None or worker.sim.now < self.deadline:
            return
        limit = worker.config.job_deadline_seconds
        worker.system.monitor.incr("jobs_deadline_exceeded")
        worker.system.monitor.log("job_deadline_exceeded",
                                  job_id=self.job.id, worker=worker.id)
        self.span.add_event("deadline_exceeded", deadline_s=limit)
        raise JobDeadlineExceeded(f"job exceeded its {limit:.0f}s deadline")

    def release_container(self) -> None:
        """Hand the container (if one is held) back to the pool, once."""
        container, self.container = self.container, None
        if container is not None:
            self.worker.pool.release(container)


# -- stages ----------------------------------------------------------------

def admit(run: JobRun):
    """Announce the job, check its credentials, parse and validate its spec."""
    worker, job = run.worker, run.job
    system = worker.system
    run.publish("status", status="accepted")
    worker._emit("job.state_change", span=run.span, job_id=job.id,
                 team=job.team, status="accepted", attempt=run.attempt)
    with system.tracer.start_span("buildspec.parse", parent=run.span,
                                  kind="worker"):
        credential = system.keystore.lookup(job.access_key)
        body = job.to_message()
        signature = body.pop("signature")
        verify_request(credential.secret_key, body, job.submitted_at,
                       signature)
        run.spec = parse_build_spec(job.spec_yaml)
        run.spec.validate(image_whitelist=system.registry.whitelist or None)


def fetch(run: JobRun):
    """Download the project archive (transient errors retried with
    backoff, only the bytes the worker's fetch cache lacks charged), unpack
    it into the tree mounted at ``/src`` and derive its content identity."""
    worker, job = run.worker, run.job
    storage = worker.system.storage
    span = worker.system.tracer.start_span(
        "storage.get", parent=run.span, kind="storage",
        attributes={"bucket": job.upload_bucket, "key": job.upload_key})
    try:
        archive = yield from _storage_call(
            "project fetch",
            lambda: storage.get_object(job.upload_bucket, job.upload_key),
            run, span)
    except StorageError as exc:
        span.end(status="error", message=str(exc))
        raise
    run.fetch_bytes = worker._fetch_transfer_bytes(archive)
    span.set_attribute("transfer_bytes", run.fetch_bytes)
    span.set_attribute("object_bytes", archive.size)
    yield worker.sim.timeout(
        run.fetch_bytes / worker.config.storage_bandwidth_bps)
    span.end()
    run.check_deadline()
    run.project_fs = VirtualFileSystem(clock=lambda: worker.sim.now)
    unpack_tree(archive.data, run.project_fs, "/")
    # Free when the upload's manifest carries per-file digests (delta
    # ingest), else one hash of the tree — same canonical form either way.
    manifest = getattr(archive, "manifest", None)
    if manifest is not None and manifest.files:
        run.source_digest = manifest.tree_digest()
    else:
        files = {path: file_digest(run.project_fs.read_file(path))
                 for path in run.project_fs.iter_files("/")}
        run.source_digest = digest_file_map(files) if files else None


def acquire(run: JobRun):
    """Pull missing image layers, then take a container warm from the pool
    or create one cold."""
    worker, job, spec = run.worker, run.job, run.spec
    pull_cost = worker.runtime.pull_cost_seconds(spec.image)
    if pull_cost > 0:
        run.log("stdout", f"Pulling image {spec.image} ...\n")
        run.span.add_event("image.pull", image=spec.image, seconds=pull_cost)
        worker.system.monitor.incr(
            "image_bytes_pulled",
            int(pull_cost * worker.config.pull_bandwidth_bps))
        yield worker.sim.timeout(pull_cost)
        run.check_deadline()
    mounts = [cuda_volume()]
    if run.project_fs is not None:      # a session may bring no project
        mounts.insert(0, VolumeMount("/src", read_only=True,
                                     source_fs=run.project_fs))
    run.container, run.pool_hit, cost = worker.pool.acquire(
        spec.image, limits=worker.config.limits, mounts=mounts,
        gpu_device=worker.gpu, on_output=run.log,
        usage_key=job.team or job.username)
    if cost > 0:
        yield worker.sim.timeout(cost)
    run.span.add_event("container.acquire", pool_hit=run.pool_hit,
                       seconds=cost, container=run.container.id,
                       generation=run.container.generation)
    worker.system.metrics.histogram(
        "container_acquire_seconds", buckets=ACQUIRE_BUCKETS,
        outcome="warm" if run.pool_hit else "cold").observe(cost)
    run.check_deadline()


def build(run: JobRun):
    """Start the container and run the build commands, each either
    replayed from the build cache or executed (and captured)."""
    worker, job, spec, container = run.worker, run.job, run.spec, run.container
    tracer = worker.system.tracer
    _start_container(run)
    run_span = tracer.start_span(
        "container.run", parent=run.span, kind="container",
        attributes={"image": spec.image, "container": container.id})
    cache = worker.system.build_cache
    image_key = None
    if cache is not None and spec.cache_enabled:
        image_key = image_cache_key(worker.runtime.registry.get(spec.image))
    run.exit_code = 0
    for command in spec.build_commands:
        run.check_deadline()
        run.publish("command", command=command)
        span = tracer.start_span(
            "container.exec", parent=run_span, kind="container",
            attributes={"command": command})
        cacheable = image_key is not None and command_cacheable(command)
        entry = cache.lookup(image_key, container.workdir, command,
                             container.fs, job_id=job.id) \
            if cacheable else None
        if entry is not None:
            code, error = yield from _replay(run, entry, span)
        else:
            result = yield from _exec(
                run, command, span, image_key if cacheable else None)
            code, error = result.exit_code, result.error
        if error is not None:
            run.log("stderr", f"✗ {error}\n")
            span.add_event("error", error=error)
            span.end(status="error", message=error)
        elif code != 0:
            run.log("stderr", f"✗ command exited with status {code}\n")
            span.end(status="error", message=f"exit {code}")
        else:
            span.end()
            continue
        run.exit_code = code
        break
    ok = run.exit_code == 0
    run.status = JobStatus.SUCCEEDED if ok else JobStatus.FAILED
    run_span.set_attribute("exit_code", run.exit_code)
    run_span.end(status=None if ok else "error")


def _start_container(run: JobRun) -> None:
    """Start the acquired container and say so."""
    worker, job, container = run.worker, run.job, run.container
    # Contention noise flows into the container's measured times: alone on
    # a worker it is ~solo_jitter; with co-running jobs it grows — the
    # single-job-mode ablation's mechanism.
    container.time_dilation = worker._timing_noise
    container.start()
    run.publish("status", status="running", container=container.id)
    worker._emit("job.state_change", span=run.span, job_id=job.id,
                 team=job.team, status="running", container=container.id)


def _replay(run: JobRun, entry, span):
    """Cache hit: replay the recorded artifact tree, streams and exit code
    instead of executing.  Burns the timing-noise draws the real execution
    would have taken, so every downstream RNG consumer sees the exact same
    sequence and run output stays byte-identical cache on or off."""
    worker = run.worker
    for _ in range(entry.rng_draws):
        worker._timing_noise()
    artifact_bytes = worker.system.build_cache.apply(entry, run.container.fs)
    seconds = (worker.system.config.buildcache_replay_seconds
               + artifact_bytes / worker.config.storage_bandwidth_bps)
    span.set_attribute("cache", "hit")
    span.add_event("buildcache.replay", key=entry.key[:16],
                   artifact_bytes=artifact_bytes,
                   saved_seconds=round(entry.charged_seconds - seconds, 6))
    run.exec_seconds += seconds
    run.saved_seconds += max(0.0, entry.charged_seconds - seconds)
    yield worker.sim.timeout(seconds)
    if entry.stdout:
        run.log("stdout", entry.stdout)
    if entry.stderr:
        run.log("stderr", entry.stderr)
    span.set_attribute("exit_code", entry.exit_code)
    return entry.exit_code, None


def _exec(run: JobRun, command: str, span, image_key):
    """Execute one command; with ``image_key`` (a cacheable command) also
    record what it observes (reads, stat probes, tree walks), writes, and
    how many timing-noise draws it consumes, and capture the result."""
    worker, container = run.worker, run.container
    if image_key is not None:
        trace = container.fs.start_tracking()
        draws = 0

        def counted_noise():
            nonlocal draws
            draws += 1
            return worker._timing_noise()

        container.time_dilation = counted_noise
    try:
        result = container.exec_line(command)
    finally:
        if image_key is not None:
            if container.fs is not None:
                container.fs.stop_tracking()
            container.time_dilation = worker._timing_noise
    # sim_duration already includes contention dilation (applied at
    # charge time inside the container).
    run.exec_seconds += result.sim_duration
    yield worker.sim.timeout(result.sim_duration)
    span.set_attribute("exit_code", result.exit_code)
    if image_key is not None and result.error is None:
        # Publish only after the execution's sim time has fully elapsed:
        # an interrupt (crash) inside the timeout above unwinds this
        # generator before the entry exists, so no partial artifact can
        # ever be observed.  Non-zero exits are cached too — a
        # deterministic compile error replays as cheaply as a success.
        worker.system.build_cache.capture(
            image_key, container.workdir, command, trace, container.fs,
            result.stdout, result.stderr, result.exit_code,
            result.sim_duration, draws, source_digest=run.source_digest,
            job_id=run.job.id)
        span.set_attribute("cache", "miss")
    return result


def upload(run: JobRun):
    """Archive ``/build``, upload it, and publish its presigned URL."""
    worker, job = run.worker, run.job
    system = worker.system
    fs = run.container.fs
    if fs is None or not fs.isdir("/build"):
        return
    blob = pack_tree(fs, "/build")
    bucket, key = system.config.build_bucket, f"{job.id}/build.tar.bz2"
    span = system.tracer.start_span(
        "storage.put", parent=run.span, kind="storage",
        attributes={"bucket": bucket, "key": key, "bytes": len(blob)})
    yield worker.sim.timeout(len(blob) / worker.config.storage_bandwidth_bps)
    try:
        yield from _storage_call(
            "build upload",
            lambda: system.storage.put_object(
                bucket, key, blob,
                metadata={"job_id": job.id, "username": job.username,
                          "team": job.team or "", "kind": job.kind.value}),
            run, span)
    except TransientStorageError as exc:
        # Degrade rather than fail the whole job: the build ran; only its
        # artifact is lost.
        run.log("stderr", f"⚠ build upload failed after retries: {exc}\n")
        span.end(status="error", message=str(exc))
        system.monitor.incr("build_upload_failures")
        return
    span.end()
    run.upload_bytes = len(blob)
    run.build_url = system.storage.presign_get(
        bucket, key, expires_in=system.config.presign_expiry_seconds)
    run.publish("build", url=run.build_url, key=key, bucket=bucket,
                size=len(blob))


def record(run: JobRun):
    """Return the container, then write the terminal document (a job's
    submission and ranking; a session's transcript)."""
    run.release_container()
    run.write_record(run)


def resume(run: JobRun):
    """A session's state lived in its container, which died with the worker
    that held it: a redelivered request (known only now to be genuine — it
    follows ``admit``) cannot be resumed, only ended."""
    if run.attempt > 1:
        run.reason = "worker-lost"
        raise SessionLost("worker failed mid-session")


def serve(run: JobRun):
    """A session's middle: run one command per ``exec`` on its input topic
    until ``detach``, the idle timeout, the session deadline or the death
    of the container.  Command failures (network denial included) do not
    end it — debugging failed commands is what sessions are for — and
    neither does a message that is not a command."""
    worker, job, container = run.worker, run.job, run.container
    sim, system = worker.sim, worker.system
    _start_container(run)
    system.monitor.incr("interactive_sessions_served")
    deadline = sim.now + min(job.session["max_duration"],
                             worker.config.limits.max_lifetime_seconds)
    inbox = Consumer(system.broker, f"{input_topic(job.id)}/#in")
    try:
        while run.reason is None:
            run.check_deadline()
            remaining = deadline - sim.now
            if remaining <= 0:
                run.reason = "session-deadline"
                break
            get_event = inbox.get()
            yield sim.any_of([get_event, sim.timeout(
                min(remaining, DEFAULT_IDLE_SECONDS))])
            if not get_event.triggered:
                inbox.cancel(get_event)
                run.reason = ("session-deadline" if sim.now >= deadline
                              else "idle-timeout")
                break
            inbox.ack(get_event.value)
            body = get_event.value.body
            kind = body.get("type") if isinstance(body, dict) else None
            command = body.get("command") if kind == "exec" else None
            if kind == "detach":
                run.reason = "detached"
            elif not isinstance(command, str):
                system.monitor.incr("malformed_session_messages")
                run.log("stderr", f"✗ ignored malformed session message "
                                  f"{str(body)[:80]!r}\n")
            else:
                span = system.tracer.start_span(
                    "container.exec", parent=run.span, kind="container",
                    attributes={"command": command})
                result = yield from _exec(run, command, span, None)
                span.end(status=None if result.exit_code == 0 else "error")
                run.commands.append({"command": command,
                                     "exit_code": result.exit_code,
                                     "duration": result.sim_duration})
                run.publish("result", seq=body.get("seq"),
                            error=result.error, **run.commands[-1])
                if container.state is not ContainerState.RUNNING:
                    # OOM-killed, or over the container lifetime cap.
                    run.reason = f"container-{container.state.value}"
    finally:
        inbox.close()
    run.status, run.exit_code = JobStatus.SUCCEEDED, 0


#: The job, in order.  No registration hook: adding a stage is an edit here.
STAGES = (admit, fetch, acquire, build, upload, record)

#: An interactive session, in order (:class:`JobRun` drops ``fetch`` when
#: the request brings no project): ``serve`` for ``build`` + ``upload``.
SESSION_STAGES = (admit, resume, fetch, acquire, serve, record)


# -- failures ---------------------------------------------------------------

class Failure(NamedTuple):
    """``errors`` raised in ``stage`` (None = any) end the job like this."""
    stage: Optional[str]
    errors: tuple
    status: JobStatus
    exit_code: Optional[int]
    line: str
    recorded: bool


_FAILED, _REJECTED = JobStatus.FAILED, JobStatus.REJECTED
_REJECT_LINE = "✗ job rejected: {exc}\n"

#: First matching row wins.  REJECTED jobs are the submitter's to fix and
#: are not recorded; FAILED ones are (they feed grading and the SLO).
FAILURES = (
    Failure(None, (JobDeadlineExceeded,), _FAILED, 124, "✗ {exc}\n", True),
    Failure("fetch", (TransientStorageError,), _FAILED, None,
            "✗ cannot fetch project after retries: {exc}\n", True),
    Failure("fetch", (StorageError,),  # NoSuchKey after lifecycle expiry, …
            _REJECTED, None, "✗ cannot fetch project: {exc}\n", False),
    Failure("fetch", (VfsError,),  # truncated or corrupt upload
            _REJECTED, None, "✗ cannot unpack project: {exc}\n", False),
    Failure("admit", (InvalidCredentials, SignatureMismatch, BuildSpecError,
                      ContainerError), _REJECTED, None, _REJECT_LINE, False),
    Failure("resume", (SessionLost,),  # redelivered: its worker died
            _FAILED, None, "✗ session lost: {exc}\n", True),
    Failure("acquire", (ContainerError,),  # image unknown to the registry
            _REJECTED, None, _REJECT_LINE, False),
)

#: Every error type some row names — what ``_process_job`` catches.
FAILURE_ERRORS = tuple({e for row in FAILURES for e in row.errors})


def fail(run: JobRun, exc: Exception) -> bool:
    """End ``run`` as the row matching (its stage, ``exc``) says; False
    when no row matches and the caller must let ``exc`` propagate."""
    for row in FAILURES:
        if row.stage in (None, run.stage) and isinstance(exc, row.errors):
            break
    else:
        return False
    run.release_container()
    run.log("stderr", row.line.format(exc=exc))
    run.status, run.exit_code = row.status, row.exit_code
    if row.recorded:
        run.write_record(run)
    return True


def _storage_call(label: str, fn, run: JobRun, span):
    """Run a storage operation under the worker's retry policy (backoff
    sleeps in simulated time, a ``retry`` event on ``span`` per attempt).
    Only :class:`TransientStorageError` is retried; permanent errors and
    the final transient failure propagate unaltered."""
    worker = run.worker
    policy = worker.config.storage_retry

    def on_retry(attempt, exc):
        run.check_deadline()
        worker.system.monitor.incr("storage_retries")
        span.add_event("retry", attempt=attempt,
                       error=f"{type(exc).__name__}: {exc}")
        run.log("stderr", f"⚠ {label} failed ({exc}); "
                          f"retry {attempt}/{policy.max_attempts - 1}\n")

    return (yield from policy.call(
        worker.sim, fn, rng=worker._retry_rng,
        retry_on=(TransientStorageError,), on_retry=on_retry))


def record_submission(run: JobRun) -> None:
    """Write the job's terminal document.

    At-least-once delivery means a job can be processed twice (e.g. a
    premature stale-sweep redelivered it while the original worker was
    still alive).  Recording is made effectively-once: whichever delivery
    records first wins; later ones are suppressed so the submissions
    collection and the ranking never double-count.
    """
    worker, job = run.worker, run.job
    system, now = worker.system, worker.sim.now
    span = system.tracer.start_span(
        "docdb.record", parent=run.span, kind="docdb",
        attributes={"collection": "submissions"})
    submissions = system.db.collection("submissions")
    if submissions.find_one({"job_id": job.id}) is not None:
        system.monitor.incr("duplicate_records_suppressed")
        system.monitor.log("duplicate_record_suppressed", job_id=job.id,
                           worker=worker.id, attempts=run.attempt)
        span.set_attribute("duplicate", True)
        span.end()
        return
    stdout = "".join(t for s, t in run.outputs if s == "stdout")
    stderr = "".join(t for s, t in run.outputs if s == "stderr")
    elapsed = _ELAPSED_RE.findall(stdout)
    correctness = _CORRECTNESS_RE.findall(stdout)
    time_match = _TIME_RE.search(stderr)
    internal_time = float(elapsed[-1]) if elapsed else None
    instructor_time = float(time_match.group(1)) if time_match else None
    # Worker-side service time (fetch + acquire + build + upload): the
    # scheduler's runtime estimator seeds SJF from this.
    service_seconds = now - run.started_at
    submissions.insert_one({
        "job_id": job.id,
        "attempts": run.attempt,
        "kind": job.kind.value,
        "username": job.username,
        "team": job.team,
        "worker": worker.id,
        "status": run.status.value,
        "exit_code": run.exit_code,
        "submitted_at": job.submitted_at,
        "finished_at": now,
        "service_seconds": service_seconds,
        "pool_hit": run.pool_hit,
        "internal_time": internal_time,
        "instructor_time": instructor_time,
        "correctness": float(correctness[-1]) if correctness else None,
        "build_url": run.build_url,
        "log_bytes": sum(len(t) for _, t in run.outputs),
        "stdout_tail": stdout[-2000:],
        "stderr_tail": stderr[-2000:],
    })
    system.monitor.incr("jobs_recorded")
    # Feed the fair-share estimator of the partition that owns this job's key.
    system.shards.note_completion(job.team or job.username, service_seconds)
    if job.kind is JobKind.SUBMIT and run.status is JobStatus.SUCCEEDED \
            and internal_time is not None and job.team:
        system.ranking.record_final(
            team=job.team, internal_time=internal_time,
            instructor_time=instructor_time or internal_time,
            correctness=float(correctness[-1]) if correctness else 0.0,
            username=job.username, job_id=job.id, at=now)
        span.add_event("ranking.recorded", team=job.team)
    span.set_attribute("duplicate", False)
    span.end()


def record_session(run: JobRun) -> None:
    """Write a session's terminal document — its transcript — and nothing
    else: a session is not graded, so ``submissions``, the ranking and the
    scheduler's runtime estimator never hear of it.  Effectively-once, as
    for submissions: the first delivery to record wins."""
    worker, job = run.worker, run.job
    if run.reason is None:      # no ``serve`` exit: a FAILURES row, or stop
        run.reason = ("worker-stopped" if not worker.is_running
                      else run.status.value)
    sessions = worker.system.db.collection("interactive_sessions")
    if sessions.find_one({"job_id": job.id}) is not None:
        worker.system.monitor.incr("duplicate_records_suppressed")
        return
    sessions.insert_one({
        "session_id": job.session["id"],
        "job_id": job.id,
        "username": job.username,
        "team": job.team,
        "worker": worker.id,
        "status": run.status.value,
        "commands": run.commands,
        "end_reason": run.reason,
        "ended_at": worker.sim.now,
    })
