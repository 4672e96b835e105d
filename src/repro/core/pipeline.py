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
    Job, JobKind, JobStatus, log_message, read_run_output)
from repro.errors import (
    BuildSpecError, ContainerError, InvalidCredentials, JobDeadlineExceeded,
    MessageTooLarge, SessionLost, SignatureMismatch, StorageError,
    TransientStorageError, VfsError)
from repro.faults.retry import RetryPolicy
from repro.storage.buildcache import image_cache_key, primary_key
from repro.storage.chunkstore import digest_file_map
from repro.vfs import VirtualFileSystem, pack_tree, unpack_tree

#: Whole-job wall-clock deadline (fetch + pull + build + upload).  The
#: container lifetime cap only meters *charged* guest time; this closes
#: the gap so a job can never hold an executor slot forever.
JOB_DEADLINE_SECONDS = 3600.0
#: Retry budget for storage fetch/upload (transient errors only).
STORAGE_RETRY = RetryPolicy()

#: Validity of the presigned build-output URL a job publishes.
BUILD_URL_EXPIRY_SECONDS = 7 * 24 * 3600.0
#: One build-cache round trip: the batched fetch of every cacheable
#: command's candidate entries (BuildKit's ``--cache-from`` manifest) into
#: the worker's index.  A delivery pays it at most once, at its first
#: cacheable command the index could not answer (a miss, or a hit on a key
#: the worker never saw); each hit also pays its own artifact bytes over
#: the worker's storage bandwidth.
BUILDCACHE_PROBE_SECONDS = 0.05


class JobRun:
    """Everything one delivery of one job owns, from claim to ``End``."""

    def __init__(self, worker, job: Job, message):
        self.worker = worker
        self.job = job
        self.attempt = message.attempts
        self.started_at = worker.sim.now
        self.deadline = self.started_at + JOB_DEADLINE_SECONDS
        # Parent on the message headers: the broker.deliver span the
        # channel minted on claim (or the client's publish span if this
        # message never carried delivery tracing).
        self.span = worker.system.tracer.start_span(
            "worker.job", parent=message.headers, kind="worker",
            attributes={"worker": worker.id, "attempt": message.attempts},
            job_id=job.id)
        #: The running stage's span (the stage loop opens it), else
        #: ``worker.job``: what a stage, or a record written from ``fail``
        #: or the interrupt path, annotates.
        self.stage_span = self.span
        self.producer = Producer(worker.system.broker, f"log_{job.id}")
        self.outputs: List[tuple] = []
        #: The running command's (stream, text) writes, None between
        #: commands.
        self.batch: Optional[List[tuple]] = None
        self.stage: Optional[str] = None
        self.status = JobStatus.FAILED
        self.exit_code: Optional[int] = None
        self.build_url = self.pool_hit = self.container = None
        self.spec = self.project_fs = self.source_digest = None
        # Usage tallies, folded into ONE meter call when the job finishes
        # (metering must stay off the per-command path).
        self.exec_seconds = self.saved_seconds = 0.0
        self.probed = False     # paid BUILDCACHE_PROBE_SECONDS yet?
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
        """One write: held while a command runs (it goes out with the
        command), else published at once, so it reaches the client at the
        instant it was written."""
        self.outputs.append((stream, text))
        if self.batch is None:
            self.send([(stream, text)])
        else:
            self.batch.append((stream, text))

    def command_done(self, command: str) -> None:
        """Publish the command's announcement and everything it wrote."""
        lines, self.batch = self.batch, None
        self.send(lines, command=command)

    def send(self, lines: list, **command) -> None:
        """``lines`` as one ``log`` message; past the broker's size limit,
        halved (a lone line by its text) until every part fits, the
        command's announcement riding the first."""
        try:
            self.publish("log", lines=lines, **command)
            return
        except MessageTooLarge:
            if len(lines) == 1 and len(lines[0][1]) > 1:
                stream, text = lines[0]
                half = len(text) // 2
                lines = [(stream, text[:half]), (stream, text[half:])]
            elif len(lines) < 2:
                raise       # the announcement alone is too big
        half = len(lines) // 2
        self.send(lines[:half], **command)
        self.send(lines[half:])

    def check_deadline(self) -> None:
        """Raise once the paper's 1-hour cap, applied wall-clock, has
        passed; the overrun is noted here, where it is detected."""
        worker = self.worker
        if worker.sim.now < self.deadline:
            return
        worker.system.monitor.incr("jobs_deadline_exceeded")
        raise JobDeadlineExceeded(
            f"job exceeded its {JOB_DEADLINE_SECONDS:.0f}s deadline")

    def release_container(self) -> None:
        """Hand the container (if one is held) back to the pool, once."""
        container, self.container = self.container, None
        if container is not None:
            self.worker.pool.release(container)


# -- stages ----------------------------------------------------------------

def admit(run: JobRun):
    """Announce the job, check its credentials, parse and validate its spec."""
    job, system = run.job, run.worker.system
    run.publish("status", status="accepted")
    credential = system.keystore.lookup(job.access_key)
    body = job.to_message()
    signature = body.pop("signature")
    verify_request(credential.secret_key, body, job.submitted_at, signature)
    run.spec = parse_build_spec(job.spec_yaml)
    run.spec.validate(image_whitelist=system.registry.whitelist or None)


def fetch(run: JobRun):
    """Download the project archive (transient errors retried with
    backoff, only the bytes the worker's fetch cache lacks charged), unpack
    it into a tree this delivery owns (``acquire`` hands it to the
    container as ``/src``) and derive its content identity."""
    worker, job, span = run.worker, run.job, run.stage_span
    storage = worker.system.storage
    archive = yield from _storage_call(
        "project fetch",
        lambda: storage.get_object(job.upload_bucket, job.upload_key), run)
    run.fetch_bytes = worker._fetch_transfer_bytes(archive)
    span.set_attribute("transfer_bytes", run.fetch_bytes)
    span.set_attribute("object_bytes", archive.size)
    yield worker.sim.timeout(
        run.fetch_bytes / worker.config.storage_bandwidth_bps)
    run.check_deadline()
    run.project_fs = VirtualFileSystem(clock=lambda: worker.sim.now)
    unpack_tree(archive.data, run.project_fs, "/")
    # Free when the upload's manifest carries per-file digests (delta
    # ingest), else one hash of the tree — same canonical form either way.
    manifest = getattr(archive, "manifest", None)
    if manifest is not None and manifest.files:
        run.source_digest = manifest.tree_digest()
    else:
        files = run.project_fs.file_digests()
        run.source_digest = digest_file_map(files) if files else None


def acquire(run: JobRun):
    """Wait for the image's layers — pulling those no one is fetching,
    joining a pull already in flight for the rest — then take a container
    warm from the pool or create one cold."""
    worker, job, spec = run.worker, run.job, run.spec
    pull = worker.runtime.pull(spec.image)
    if pull.seconds > 0:
        run.log("stdout", f"Pulling image {spec.image} ...\n")
        run.stage_span.add_event("image.pull", image=spec.image,
                                 seconds=pull.seconds,
                                 started_bytes=pull.bytes, joined=pull.joined)
        yield worker.sim.timeout(pull.seconds)
        run.check_deadline()
    mounts = [cuda_volume()]
    if run.project_fs is not None:      # a session may bring no project
        # Handed over, not copied: the container's fs becomes the tree's
        # one holder, its read-only prefix the tree's one guard.
        mounts.insert(0, VolumeMount("/src", read_only=True,
                                     tree=run.project_fs.root))
        run.project_fs = None
    run.container, run.pool_hit, cost = worker.pool.acquire(
        spec.image, limits=worker.config.limits, mounts=mounts,
        gpu_device=worker.gpu, on_output=run.log,
        usage_key=job.team or job.username)
    if cost > 0:
        yield worker.sim.timeout(cost)
    run.stage_span.add_event("container.acquire", image=spec.image,
                             pool_hit=run.pool_hit, seconds=cost,
                             container=run.container.id,
                             generation=run.container.generation)
    run.check_deadline()


def build(run: JobRun):
    """Start the container and run the build commands, each either
    replayed from the build cache or executed (and captured)."""
    worker, spec, container = run.worker, run.spec, run.container
    _start_container(run)
    cache = worker.system.build_cache
    image_key = None
    if cache is not None and spec.cache_enabled:
        image_key = image_cache_key(worker.runtime.registry.get(spec.image))
    run.exit_code = 0
    for command in spec.build_commands:
        run.check_deadline()
        with worker.system.tracer.start_span(
                "container.exec", parent=run.stage_span, kind="container",
                attributes={"command": command}) as span:
            cacheable = image_key is not None and command_cacheable(command)
            entry, indexed = None, False
            if cacheable:
                entry = cache.lookup(image_key, container.workdir, command,
                                     container.fs)
                indexed = entry is not None and entry.key in \
                    worker.buildcache_index.get(entry.primary, ())
                if not (indexed or run.probed):
                    yield from _probe(run, image_key, span)
            if entry is not None:
                code, error = yield from _replay(run, entry, span, indexed)
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
                continue
        run.exit_code = code
        break
    ok = run.exit_code == 0
    run.status = JobStatus.SUCCEEDED if ok else JobStatus.FAILED
    run.stage_span.set_attribute("exit_code", run.exit_code)
    run.stage_span.end(status=None if ok else "error")


def _start_container(run: JobRun) -> None:
    """Start the acquired container and say so."""
    worker, container = run.worker, run.container
    # Contention noise flows into the container's measured times: alone on
    # a worker it is ~SOLO_JITTER; with co-running jobs it grows — the
    # single-job-mode ablation's mechanism.
    container.time_dilation = worker._timing_noise
    container.start()
    run.publish("status", status="running", container=container.id)


def _probe(run: JobRun, image_key: str, span):
    """The delivery's one round trip to the shared cache: refresh the
    worker's index with a copy of the bucket of every cacheable command of
    the job, as the cache holds them now."""
    worker, container = run.worker, run.container
    cache = worker.system.build_cache
    primaries = {primary_key(image_key, container.workdir, command)
                 for command in run.spec.build_commands
                 if command_cacheable(command)}
    for primary in primaries:
        worker.buildcache_index[primary] = cache.bucket(primary)
    run.probed = True
    run.exec_seconds += BUILDCACHE_PROBE_SECONDS
    span.add_event("buildcache.probe", seconds=BUILDCACHE_PROBE_SECONDS,
                   primaries=len(primaries))
    yield worker.sim.timeout(BUILDCACHE_PROBE_SECONDS)


def _replay(run: JobRun, entry, span, indexed: bool):
    """Cache hit: replay the recorded artifact tree, streams and exit code
    instead of executing.  Burns the timing-noise draws the real execution
    would have taken, so every downstream RNG consumer sees the exact same
    sequence and run output stays byte-identical cache on or off.  A hit
    pays its artifact bytes; ``indexed`` says its key was in the worker's
    index, so it asked the shared cache nothing."""
    worker = run.worker
    for _ in range(entry.rng_draws):
        worker._timing_noise()
    artifact_bytes = worker.system.build_cache.apply(entry, run.container.fs)
    seconds = artifact_bytes / worker.config.storage_bandwidth_bps
    span.set_attribute("cache", "hit")
    span.add_event("buildcache.replay", key=entry.key[:16], indexed=indexed,
                   artifact_bytes=artifact_bytes,
                   saved_seconds=round(entry.charged_seconds - seconds, 6))
    run.exec_seconds += seconds
    run.saved_seconds += max(0.0, entry.charged_seconds - seconds)
    yield worker.sim.timeout(seconds)
    run.batch = []
    if entry.stdout:
        run.log("stdout", entry.stdout)
    if entry.stderr:
        run.log("stderr", entry.stderr)
    run.command_done(entry.command)
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
    run.batch = []
    try:
        result = container.exec_line(command)
    finally:
        if image_key is not None:
            if container.fs is not None:
                container.fs.stop_tracking()
            container.time_dilation = worker._timing_noise
    # Its output was written at this instant: it goes out now, not after
    # the command's simulated duration.
    run.command_done(command)
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
        entry = worker.system.build_cache.capture(
            image_key, container.workdir, command, trace, container.fs,
            result.stdout, result.stderr, result.exit_code,
            result.sim_duration, draws, source_digest=run.source_digest,
            job_id=run.job.id)
        worker.buildcache_index.setdefault(entry.primary, set()).add(
            entry.key)
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
    run.stage_span.set_attribute("bytes", len(blob))
    yield worker.sim.timeout(len(blob) / worker.config.storage_bandwidth_bps)
    try:
        yield from _storage_call(
            "build upload",
            lambda: system.storage.put_object(
                bucket, key, blob,
                metadata={"job_id": job.id, "username": job.username,
                          "team": job.team or "", "kind": job.kind.value}),
            run)
    except TransientStorageError as exc:
        # Degrade rather than fail the whole job: the build ran; only its
        # artifact is lost.
        run.log("stderr", f"⚠ build upload failed after retries: {exc}\n")
        run.stage_span.end(status="error", message=str(exc))
        return
    run.upload_bytes = len(blob)
    run.build_url = system.storage.presign_get(
        bucket, key, expires_in=BUILD_URL_EXPIRY_SECONDS)
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
                run.log("stderr", f"✗ ignored malformed session message "
                                  f"{str(body)[:80]!r}\n")
            else:
                with system.tracer.start_span(
                        "container.exec", parent=run.stage_span,
                        kind="container",
                        attributes={"command": command}) as span:
                    result = yield from _exec(run, command, span, None)
                    if result.exit_code != 0:
                        span.end(status="error")
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


def _storage_call(label: str, fn, run: JobRun):
    """Run a storage operation under the worker's retry policy (backoff
    sleeps in simulated time, a ``retry`` event on the stage's span per
    attempt).
    Only :class:`TransientStorageError` is retried; permanent errors and
    the final transient failure propagate unaltered."""
    worker = run.worker
    policy = STORAGE_RETRY

    def on_retry(attempt, exc):
        run.check_deadline()
        worker.system.monitor.incr("storage_retries")
        run.stage_span.add_event("retry", attempt=attempt,
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
    worker, job, span = run.worker, run.job, run.stage_span
    system, now = worker.system, worker.sim.now
    submissions = system.db.collection("submissions")
    if submissions.find_one({"job_id": job.id}) is not None:
        system.monitor.incr("duplicate_records_suppressed")
        span.set_attribute("duplicate", True)
        return
    stdout = "".join(t for s, t in run.outputs if s == "stdout")
    stderr = "".join(t for s, t in run.outputs if s == "stderr")
    readings = read_run_output(stdout, stderr)
    internal_time, correctness = readings.internal_time, readings.correctness
    instructor_time = (readings.time_command["real"]
                       if readings.time_command else None)
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
        "correctness": correctness,
        "build_url": run.build_url,
        "log_bytes": sum(len(t) for _, t in run.outputs),
        "stdout_tail": stdout[-2000:],
        "stderr_tail": stderr[-2000:],
    })
    # Feed the fair-share estimator of the partition that owns this job's key.
    system.shards.note_completion(job.team or job.username, service_seconds)
    if job.kind is JobKind.SUBMIT and run.status is JobStatus.SUCCEEDED \
            and internal_time is not None and job.team:
        system.ranking.record_final(
            team=job.team, internal_time=internal_time,
            instructor_time=instructor_time or internal_time,
            correctness=correctness if correctness is not None else 0.0,
            username=job.username, job_id=job.id, at=now)
        span.add_event("ranking.recorded", team=job.team)
    span.set_attribute("duplicate", False)


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
