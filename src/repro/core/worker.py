"""The RAI worker: §V "Worker Operations", implemented step by step.

1. subscribe to the ``rai`` topic's task channel;
2. on a message: parse, check credentials, extract the build spec;
3. start a Docker container from the job's base image (pulling on a cache
   miss), with limited RAM, no network, the CUDA volume mounted, and all
   stdout/stderr piped to the ``log_${job_id}`` topic;
4. download the client's project archive and mount it at ``/src``
   (read-only), with a writable ``/build`` working directory;
5. execute the build-file commands in the container;
6. archive ``/build``, upload it to the file server, send its URL and the
   ``End`` message, and destroy the container.

A worker runs ``max_concurrent_jobs`` executor loops.  Near deadlines the
course set this to 1 because exclusive use "makes the performance timing
more accurate and repeatable" — reproduced here as contention jitter that
scales with the number of co-running jobs.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import List, Optional

from repro.broker.client import Consumer, Producer
from repro.buildspec.parser import parse_build_spec
from repro.buildspec.spec import command_cacheable
from repro.container.pool import WarmContainerPool
from repro.container.runtime import ContainerRuntime
from repro.container.volumes import VolumeMount, cuda_volume
from repro.core.config import WorkerConfig
from repro.core.job import Job, JobKind, JobStatus, _CORRECTNESS_RE, _ELAPSED_RE, _TIME_RE
from repro.errors import (
    BuildSpecError,
    ContainerError,
    InvalidCredentials,
    Interrupt,
    JobDeadlineExceeded,
    SignatureMismatch,
    StorageError,
    TransientStorageError,
    VfsError,
)
from repro.gpu.device import get_device
from repro.storage.buildcache import image_cache_key
from repro.storage.chunkstore import digest_file_map
from repro.vfs import VirtualFileSystem, file_digest, pack_tree, unpack_tree

_worker_counter = itertools.count(1)


def _defuse_interrupt_failure(process_event) -> None:
    if not process_event._ok and isinstance(process_event._value, Interrupt):
        process_event._defused = True


class RaiWorker:
    """One worker node (an "agent that starts a sandboxed environment to
    execute students' code", §IV)."""

    def __init__(self, system, config: Optional[WorkerConfig] = None,
                 worker_id: Optional[str] = None):
        self.system = system
        self.sim = system.sim
        self.config = config or WorkerConfig()
        self.id = worker_id or f"worker-{next(_worker_counter):04d}"
        self.gpu = get_device(self.config.gpu_model)
        self.runtime = ContainerRuntime(
            registry=system.registry,
            pull_bandwidth_bps=self.config.pull_bandwidth_bps,
            clock=lambda: self.sim.now,
        )
        self.pool = WarmContainerPool(
            self.runtime,
            clock=lambda: self.sim.now,
            max_per_image=self.config.warm_pool_size,
            ttl_seconds=self.config.warm_pool_ttl_seconds,
            create_seconds=self.config.container_create_seconds,
            reset_seconds=self.config.container_reset_seconds,
            events=getattr(system, "events", None),
            owner=self.id,
            usage=getattr(system, "usage", None),
        )
        #: The deployment event log (None for bare test harnesses).
        self.events = getattr(system, "events", None)
        self._rng = system.rng.stream(f"worker:{self.id}")
        # Backoff jitter draws from its own stream so retries never perturb
        # the timing-noise sequence of a fault-free run with the same seed.
        self._retry_rng = system.rng.stream(f"worker:{self.id}:retry")
        self._stopped = False
        self._crashed = False
        #: Home partition index on a sharded deployment (set by
        #: ``RaiSystem.add_worker``); None = consume ``task_route`` as-is.
        self.partition: Optional[int] = None
        # Manifest-aware fetch cache: content digests (chunk hashes, or
        # whole-object etags for non-chunked objects) this worker already
        # transferred, LRU-bounded by fetch_cache_bytes.  A repeat fetch
        # of identical content is near-free; a resubmission with small
        # edits transfers only its changed chunks.
        self._fetch_cache: "OrderedDict[str, int]" = OrderedDict()
        self._fetch_cache_bytes = 0
        self.fetch_cache_hit_bytes = 0
        self.fetch_cache_miss_bytes = 0
        self.fetch_cache_evictions = 0
        #: Open worker.job spans (one per in-flight job) so a crash can
        #: annotate and close them — the interrupted generators never
        #: reach their own finally blocks' span bookkeeping in time.
        self._active_spans: List = []
        self.active_jobs = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.busy_seconds = 0.0
        self.started_at = self.sim.now
        self.stopped_at: Optional[float] = None
        # Per-slot live-time accounting: utilization's denominator counts
        # only seconds each concurrency slot actually existed, so slots
        # added or removed mid-run do not skew the busy fraction the
        # autoscaler reads.
        self._slot_counter = itertools.count()
        self._slot_open: dict = {}
        self._slot_seconds_closed = 0.0
        self._executors: List = []
        for _ in range(self.config.max_concurrent_jobs):
            self._spawn_slot()
        if self.config.enable_interactive:
            from repro.core.interactive import serve_sessions

            proc = self.sim.process(serve_sessions(self))
            proc.callbacks.append(_defuse_interrupt_failure)
            self._executors.append(proc)

    def _emit(self, type: str, span=None, **fields) -> None:
        if self.events is not None:
            self.events.emit(type, span=span, worker=self.id, **fields)

    def _spawn_slot(self) -> int:
        slot = next(self._slot_counter)
        self._slot_open[slot] = self.sim.now
        self._emit("worker.slot", action="open", slot=slot)
        proc = self.sim.process(self._executor_loop(slot))
        # A stop() interrupt can land before an executor's generator has
        # even started, in which case the Interrupt escapes the loop's try
        # blocks; mark it handled so it cannot crash the simulation.
        proc.callbacks.append(_defuse_interrupt_failure)
        self._executors.append(proc)
        return slot

    def add_slots(self, count: int = 1) -> None:
        """Grow concurrency mid-run (each new slot starts an executor)."""
        if self._stopped:
            raise RuntimeError("cannot add slots to a stopped worker")
        if count < 1:
            raise ValueError("count must be >= 1")
        for _ in range(count):
            self._spawn_slot()

    def _close_slot(self, slot: int) -> None:
        opened_at = self._slot_open.pop(slot, None)
        if opened_at is not None:
            self._slot_seconds_closed += self.sim.now - opened_at
            self._emit("worker.slot", action="close", slot=slot)

    @property
    def slot_count(self) -> int:
        """Concurrency slots currently live."""
        return len(self._slot_open)

    def slot_seconds(self) -> float:
        """Total slot-seconds of capacity this worker has offered."""
        now = self.sim.now
        return self._slot_seconds_closed + \
            sum(now - opened for opened in self._slot_open.values())

    # -- lifecycle ----------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return not self._stopped

    def stop(self) -> None:
        """Stop accepting new jobs; in-flight jobs are interrupted."""
        if self._stopped:
            return
        self._stopped = True
        self.stopped_at = self.sim.now
        self.pool.close()
        for slot in list(self._slot_open):
            self._close_slot(slot)
        for proc in self._executors:
            if proc.is_alive:
                proc.interrupt("worker stopped")

    def crash(self) -> None:
        """Abrupt death (spot-instance reclaim, kernel panic).

        Unlike :meth:`stop`, nothing is acked, published, or recorded:
        any in-flight job message stays un-acked on its channel until the
        broker caretaker's stale sweep redelivers it to another worker —
        the failure-robustness path of §V ("these operations need to ...
        be robust to failures").
        """
        self._crashed = True
        self._emit("worker.crash", active_jobs=self.active_jobs)
        tracer = self.system.tracer
        for span in list(self._active_spans):
            span.add_event("fault.worker_crash", worker=self.id)
            tracer.end_subtree(span, status="error",
                               message=f"worker {self.id} crashed mid-job")
        self._active_spans.clear()
        self.stop()

    @property
    def uptime(self) -> float:
        end = self.stopped_at if self.stopped_at is not None else self.sim.now
        return end - self.started_at

    def utilization(self) -> float:
        """Busy fraction of the slot-seconds this worker actually offered.

        The denominator is per-slot live time (not uptime × configured
        concurrency), so slots added via :meth:`add_slots` or retired
        mid-run are weighted by how long they really existed.
        """
        denom = self.slot_seconds()
        return self.busy_seconds / denom if denom > 0 else 0.0

    def pool_hit_rate(self) -> float:
        """Warm-pool hit fraction over this worker's container acquires."""
        return self.pool.hit_rate()

    # -- the executor loop ------------------------------------------------------

    def _make_consumer(self):
        """The task consumer an executor slot opens.

        Partition-homed workers on a sharded deployment get a
        :class:`~repro.shard.steal.StealingConsumer` (home-channel
        claims with pull-steal fallback); everything else — unsharded
        systems, bare test harnesses, custom-pinned routes — gets a
        plain :class:`~repro.broker.client.Consumer`, unchanged.
        """
        shards = getattr(self.system, "shards", None)
        if shards is not None and self.partition is not None:
            return shards.consumer(self.partition)
        return Consumer(self.system.broker, self.config.task_route)

    def _executor_loop(self, slot: int):
        consumer = self._make_consumer()
        try:
            while not self._stopped:
                # Prefetch: claim an already-queued message synchronously
                # (one scheduler round-trip per *batch*, not per message);
                # park on the blocking get only when nothing is ready.
                # try_deliver never steals from another executor's pending
                # blocking get, so idle slots still wake fairly.
                message = consumer.try_get()
                if message is not None:
                    self.system.monitor.incr("worker_prefetch_claims")
                else:
                    get_event = consumer.get()
                    try:
                        message = yield get_event
                    except Interrupt:
                        self._cancel_get(consumer, get_event)
                        break
                if self._stopped:
                    consumer.requeue(message)
                    break
                start = self.sim.now
                try:
                    outcome = yield from self._process_job(message)
                except Interrupt:
                    self.busy_seconds += self.sim.now - start
                    if not self._crashed:
                        # Graceful scale-down: the job was already
                        # consumed and its failure reported; ack it.
                        # A *crash* acks nothing — the caretaker will
                        # redeliver the message to another worker.
                        consumer.ack(message)
                    break
                self.busy_seconds += self.sim.now - start
                if outcome is False:
                    # Unparseable message: requeue it (another worker
                    # generation might understand it) until the attempt
                    # budget routes it to the dead-letter list, where the
                    # system dead-letter consumer picks it up.
                    if not consumer.requeue(message):
                        self.system.monitor.incr(
                            "task_messages_dead_lettered")
                        self.system.monitor.log(
                            "task_message_dead_lettered",
                            message_id=message.id,
                            attempts=message.attempts)
                else:
                    # The job was parsed out of the body long ago and the
                    # envelope is never touched again: recycle it.
                    consumer.ack_release(message)
        finally:
            consumer.close()
            self._close_slot(slot)

    @staticmethod
    def _cancel_get(consumer, get_event) -> None:
        if not get_event.triggered:
            # Withdraw the pending get so no message is delivered into
            # the void after this executor exits.
            get_event.succeed(None)
        else:
            # Raced with a delivery: hand the message back to the channel.
            get_event.callbacks.append(
                lambda evt: evt.value is not None and
                consumer.requeue(evt.value))

    # -- job processing ------------------------------------------------------

    def _process_job(self, message):
        try:
            job = Job.from_message(message.body)
        except (KeyError, TypeError, ValueError) as exc:
            # A malformed task message (version skew, junk injected onto
            # the queue) must not crash the worker.  Returning False makes
            # the executor requeue it toward the dead-letter path; count
            # and log the parse error once, on first sight.
            if message.attempts <= 1:
                self.system.monitor.incr("malformed_job_messages")
                self.jobs_failed += 1
            self.system.monitor.log(
                "malformed_job_message", message_id=message.id,
                attempts=message.attempts,
                error=f"{type(exc).__name__}: {exc}")
            return False
        deadline = (self.sim.now + self.config.job_deadline_seconds
                    if self.config.job_deadline_seconds is not None else None)
        proc_start = self.sim.now
        pool_hit: Optional[bool] = None
        # Per-job usage accounting, folded into ONE meter call in the
        # finally block (metering must stay off the per-command path).
        # Attribution rides the job document, so a redelivered or
        # cross-shard-stolen job still bills its originating team.
        usage = getattr(self.system, "usage", None)
        usage_exec_seconds = 0.0
        usage_saved_seconds = 0.0
        usage_fetch_bytes = 0
        usage_upload_bytes = 0
        self.active_jobs += 1
        tracer = self.system.tracer
        # Parent on the message headers: the broker.deliver span the
        # channel minted on claim (or the client's publish span if this
        # message never carried delivery tracing).
        wspan = tracer.start_span(
            "worker.job", parent=message.headers, kind="worker",
            attributes={"worker": self.id, "attempt": message.attempts},
            job_id=job.id)
        self._active_spans.append(wspan)
        producer = Producer(self.system.broker, f"log_{job.id}")
        outputs: List[tuple] = []

        def publish(kind: str, _headers=None, **payload) -> None:
            producer.publish({"type": kind, "t": self.sim.now,
                              "worker": self.id, **payload},
                             headers=_headers)

        def publish_log(stream: str, text: str) -> None:
            outputs.append((stream, text))
            publish("log", stream=stream, text=text)

        status = JobStatus.FAILED
        exit_code: Optional[int] = None
        build_url = None
        try:
            publish("status", status="accepted")
            self._emit("job.state_change", span=wspan, job_id=job.id,
                       team=job.team, status="accepted",
                       attempt=message.attempts)

            # Step 2 — credentials and spec.
            try:
                with tracer.start_span("buildspec.parse", parent=wspan,
                                       kind="worker"):
                    credential = self._verify(job)
                    spec = parse_build_spec(job.spec_yaml)
                    spec.validate(
                        image_whitelist=self.system.registry.whitelist
                        or None)
            except (InvalidCredentials, SignatureMismatch,
                    BuildSpecError, ContainerError) as exc:
                publish_log("stderr", f"✗ job rejected: {exc}\n")
                status = JobStatus.REJECTED
                return

            # Step 4 — fetch and unpack the project.  Transient storage
            # errors are retried with backoff; permanent ones (NoSuchKey
            # after lifecycle expiry etc.) reject immediately.
            get_span = tracer.start_span(
                "storage.get", parent=wspan, kind="storage",
                attributes={"bucket": job.upload_bucket,
                            "key": job.upload_key})
            try:
                archive = yield from self._storage_call(
                    "project fetch",
                    lambda: self.system.storage.get_object(
                        job.upload_bucket, job.upload_key),
                    deadline, publish_log, span=get_span)
            except TransientStorageError as exc:
                publish_log("stderr",
                            f"✗ cannot fetch project after retries: {exc}\n")
                get_span.end(status="error", message=str(exc))
                status = JobStatus.FAILED
                self._record(job, status, exit_code, outputs, build_url,
                             attempts=message.attempts, span=wspan,
                             service_seconds=self.sim.now - proc_start)
                return
            except StorageError as exc:  # NoSuchKey etc.
                publish_log("stderr", f"✗ cannot fetch project: {exc}\n")
                get_span.end(status="error", message=str(exc))
                status = JobStatus.REJECTED
                return
            transfer_bytes = self._fetch_transfer_bytes(archive)
            usage_fetch_bytes = transfer_bytes
            get_span.set_attribute("transfer_bytes", transfer_bytes)
            get_span.set_attribute("object_bytes", archive.size)
            yield self.sim.timeout(
                transfer_bytes / self.config.storage_bandwidth_bps)
            get_span.end()
            self._check_deadline(deadline)
            project_fs = VirtualFileSystem(clock=lambda: self.sim.now)
            try:
                unpack_tree(archive.data, project_fs, "/")
            except VfsError as exc:  # truncated or corrupt upload
                publish_log("stderr", f"✗ cannot unpack project: {exc}\n")
                status = JobStatus.REJECTED
                return
            source_digest = self._source_digest(archive, project_fs)

            # Step 3 — container (pull missing image layers on a cache
            # miss, then acquire warm from the pool or create cold).
            pull_cost = self.runtime.pull_cost_seconds(spec.image)
            if pull_cost > 0:
                publish_log("stdout", f"Pulling image {spec.image} ...\n")
                wspan.add_event("image.pull", image=spec.image,
                                seconds=pull_cost)
                self.system.monitor.incr(
                    "image_bytes_pulled",
                    int(pull_cost * self.config.pull_bandwidth_bps))
                yield self.sim.timeout(pull_cost)
                self._check_deadline(deadline)
            container, pool_hit, acquire_cost = self.pool.acquire(
                spec.image,
                limits=self.config.limits,
                mounts=[
                    VolumeMount("/src", read_only=True,
                                source_fs=project_fs),
                    cuda_volume(),
                ],
                gpu_device=self.gpu,
                on_output=publish_log,
                usage_key=job.team or job.username,
            )
            # Step 5 — run the build commands.
            try:
                if acquire_cost > 0:
                    yield self.sim.timeout(acquire_cost)
                wspan.add_event("container.acquire", pool_hit=pool_hit,
                                seconds=acquire_cost,
                                container=container.id,
                                generation=container.generation)
                self.system.metrics.histogram(
                    "container_acquire_seconds",
                    outcome="warm" if pool_hit else "cold",
                ).observe(acquire_cost)
                self._check_deadline(deadline)
                # Contention noise flows into the container's measured
                # times: alone on a worker it is ~solo_jitter; with
                # co-running jobs it grows — the single-job-mode
                # ablation's mechanism.
                container.time_dilation = self._timing_noise
                container.start()
                publish("status", status="running", container=container.id)
                self._emit("job.state_change", span=wspan, job_id=job.id,
                           team=job.team, status="running",
                           container=container.id)
                run_span = tracer.start_span(
                    "container.run", parent=wspan, kind="container",
                    attributes={"image": spec.image,
                                "container": container.id})
                build_cache = self.system.build_cache
                cache_image_key = None
                if build_cache is not None and spec.cache_enabled:
                    cache_image_key = image_cache_key(
                        self.runtime.registry.get(spec.image))
                exit_code = 0
                for command in spec.build_commands:
                    self._check_deadline(deadline)
                    publish("command", command=command)
                    exec_span = tracer.start_span(
                        "container.exec", parent=run_span, kind="container",
                        attributes={"command": command})
                    cacheable = (cache_image_key is not None
                                 and command_cacheable(command))
                    entry = None
                    if cacheable:
                        entry = build_cache.lookup(
                            cache_image_key, container.workdir, command,
                            container.fs, job_id=job.id)
                    if entry is not None:
                        # Cache hit: replay the recorded artifact tree,
                        # streams, and exit code instead of executing.
                        # Burn the timing-noise draws the real execution
                        # would have taken, so every downstream RNG
                        # consumer sees the exact same sequence and run
                        # output stays byte-identical cache on or off.
                        for _ in range(entry.rng_draws):
                            self._timing_noise()
                        artifact_bytes = build_cache.apply(
                            entry, container.fs)
                        replay_seconds = (
                            self.system.config.buildcache_replay_seconds
                            + artifact_bytes
                            / self.config.storage_bandwidth_bps)
                        exec_span.set_attribute("cache", "hit")
                        exec_span.add_event(
                            "buildcache.replay", key=entry.key[:16],
                            artifact_bytes=artifact_bytes,
                            saved_seconds=round(
                                entry.charged_seconds - replay_seconds, 6))
                        usage_exec_seconds += replay_seconds
                        usage_saved_seconds += max(
                            0.0, entry.charged_seconds - replay_seconds)
                        yield self.sim.timeout(replay_seconds)
                        if entry.stdout:
                            publish_log("stdout", entry.stdout)
                        if entry.stderr:
                            publish_log("stderr", entry.stderr)
                        exec_span.set_attribute("exit_code",
                                                entry.exit_code)
                        if entry.exit_code != 0:
                            publish_log(
                                "stderr",
                                f"✗ command exited with status "
                                f"{entry.exit_code}\n")
                            exec_span.end(
                                status="error",
                                message=f"exit {entry.exit_code}")
                            exit_code = entry.exit_code
                            break
                        exec_span.end()
                        continue
                    if cacheable:
                        # Record what the command observes (reads, stat
                        # probes, tree walks) and writes, plus how many
                        # timing-noise draws it consumes.
                        trace = container.fs.start_tracking()
                        draws = [0]

                        def counted_noise(_draws=draws):
                            _draws[0] += 1
                            return self._timing_noise()

                        container.time_dilation = counted_noise
                    try:
                        result = container.exec_line(command)
                    finally:
                        if cacheable:
                            if container.fs is not None:
                                container.fs.stop_tracking()
                            container.time_dilation = self._timing_noise
                    # sim_duration already includes contention dilation
                    # (applied at charge time inside the container).
                    usage_exec_seconds += result.sim_duration
                    yield self.sim.timeout(result.sim_duration)
                    exec_span.set_attribute("exit_code", result.exit_code)
                    if result.error is not None:
                        publish_log("stderr", f"✗ {result.error}\n")
                        exec_span.add_event("error", error=result.error)
                        exec_span.end(status="error", message=result.error)
                        exit_code = result.exit_code
                        break
                    if cacheable:
                        # Publish only after the execution's sim time has
                        # fully elapsed: an interrupt (crash) inside the
                        # timeout above unwinds this generator before the
                        # entry exists, so no partial artifact can ever
                        # be observed.  Non-zero exits are cached too —
                        # a deterministic compile error replays as
                        # cheaply as a success.
                        build_cache.capture(
                            cache_image_key, container.workdir, command,
                            trace, container.fs,
                            result.stdout, result.stderr,
                            result.exit_code, result.sim_duration,
                            draws[0], source_digest=source_digest,
                            job_id=job.id)
                        exec_span.set_attribute("cache", "miss")
                    if result.exit_code != 0:
                        publish_log(
                            "stderr",
                            f"✗ command exited with status "
                            f"{result.exit_code}\n")
                        exec_span.end(
                            status="error",
                            message=f"exit {result.exit_code}")
                        exit_code = result.exit_code
                        break
                    exec_span.end()
                status = (JobStatus.SUCCEEDED if exit_code == 0
                          else JobStatus.FAILED)
                run_span.set_attribute("exit_code", exit_code)
                run_span.end(status=None if exit_code == 0 else "error")

                # Step 6 — archive /build and upload it.
                if container.fs is not None and container.fs.isdir("/build"):
                    blob = pack_tree(container.fs, "/build")
                    key = f"{job.id}/build.tar.bz2"
                    put_span = tracer.start_span(
                        "storage.put", parent=wspan, kind="storage",
                        attributes={
                            "bucket": self.system.config.build_bucket,
                            "key": key, "bytes": len(blob)})
                    yield self.sim.timeout(
                        len(blob) / self.config.storage_bandwidth_bps)
                    try:
                        yield from self._storage_call(
                            "build upload",
                            lambda: self.system.storage.put_object(
                                self.system.config.build_bucket, key, blob,
                                metadata={
                                    "job_id": job.id,
                                    "username": job.username,
                                    "team": job.team or "",
                                    "kind": job.kind.value,
                                }),
                            deadline, publish_log, span=put_span)
                    except TransientStorageError as exc:
                        # Degrade rather than fail the whole job: the build
                        # ran; only its artifact is lost.
                        publish_log(
                            "stderr",
                            f"⚠ build upload failed after retries: {exc}\n")
                        put_span.end(status="error", message=str(exc))
                        self.system.monitor.incr("build_upload_failures")
                    else:
                        put_span.end()
                        usage_upload_bytes = len(blob)
                        build_url = self.system.storage.presign_get(
                            self.system.config.build_bucket, key,
                            expires_in=self.system.config
                            .presign_expiry_seconds)
                        publish("build", url=build_url, key=key,
                                bucket=self.system.config.build_bucket,
                                size=len(blob))
            finally:
                self.pool.release(container)

            # Record the submission and, for finals, the ranking.
            self._record(job, status, exit_code, outputs, build_url,
                         attempts=message.attempts, span=wspan,
                         service_seconds=self.sim.now - proc_start,
                         pool_hit=pool_hit)
        except JobDeadlineExceeded as exc:
            # The paper's 1-hour cap, applied wall-clock: kill whatever is
            # left (the container was destroyed on the way out) and report
            # a terminal failure so the executor slot frees up.
            publish_log("stderr", f"✗ {exc}\n")
            status = JobStatus.FAILED
            exit_code = 124
            self.system.monitor.incr("jobs_deadline_exceeded")
            self.system.monitor.log("job_deadline_exceeded", job_id=job.id,
                                    worker=self.id)
            wspan.add_event("deadline_exceeded",
                            deadline_s=self.config.job_deadline_seconds)
            self._record(job, status, exit_code, outputs, build_url,
                         attempts=message.attempts, span=wspan,
                         service_seconds=self.sim.now - proc_start,
                         pool_hit=pool_hit)
        except Interrupt:
            if not self._crashed:
                publish_log("stderr", "✗ worker shutting down mid-job\n")
                status = JobStatus.FAILED
                self._record(job, status, exit_code, outputs, build_url,
                             attempts=message.attempts, span=wspan,
                             service_seconds=self.sim.now - proc_start,
                             pool_hit=pool_hit)
            raise
        finally:
            if status is JobStatus.SUCCEEDED:
                self.jobs_completed += 1
            else:
                self.jobs_failed += 1
            if not self._crashed:
                # A crashed worker's job is not *finished* — the broker
                # redelivers it, and that attempt reports the outcome.
                # Only real terminations feed the success-ratio SLO.
                # Same rule for the usage meter: the redelivery attempt
                # (which re-runs the work) is the one that bills.
                if usage is not None:
                    usage.record_job(
                        job.team or job.username, job_id=job.id,
                        trace_id=wspan.trace_id,
                        container_seconds=usage_exec_seconds,
                        gpu_seconds=(usage_exec_seconds
                                     if self.gpu is not None else 0.0),
                        slot_seconds=self.sim.now - proc_start,
                        bytes_downloaded=usage_fetch_bytes,
                        bytes_uploaded=usage_upload_bytes,
                        build_seconds_saved=usage_saved_seconds)
                self.system.metrics.counter(
                    "jobs_finished", status=status.value).inc()
                self._emit("job.state_change", span=wspan, job_id=job.id,
                           team=job.team, status=status.value,
                           exit_code=exit_code, worker_final=True)
                # A crashed worker cannot publish; its client keeps
                # waiting until redelivery produces a real End.  The End
                # message carries the publish span's context so the
                # client-side delivery joins the trace.
                end_span = tracer.start_span(
                    "result.publish", parent=wspan, kind="worker",
                    attributes={"status": status.value})
                publish("end", status=status.value, exit_code=exit_code,
                        _headers=end_span.headers())
                end_span.end()
            wspan.set_attribute("status", status.value)
            # Safety net: ends whatever children an exceptional unwind
            # (deadline, interrupt) left open, then the job span itself.
            # A crash already ended the subtree with an error status.
            tracer.end_subtree(wspan)
            if wspan in self._active_spans:
                self._active_spans.remove(wspan)
            producer.close()
            self.active_jobs -= 1

    # -- helpers ------------------------------------------------------------

    def _fetch_transfer_bytes(self, obj) -> int:
        """Bytes a project fetch moves, given the worker's content cache.

        Chunked objects are accounted per chunk digest (plus a padding
        pseudo-entry keyed on the object's etag); plain objects by their
        whole-object etag.  Every ref touched is promoted/inserted into
        the LRU, then the cache is trimmed to its byte budget.
        """
        manifest = getattr(obj, "manifest", None)
        if manifest is not None:
            refs = [(c.digest, c.size) for c in manifest.chunks]
            if obj.padding_bytes:
                refs.append((f"{obj.etag}:padding", obj.padding_bytes))
        else:
            refs = [(obj.etag, obj.size)]
        budget = self.config.fetch_cache_bytes
        transferred = 0
        saved = 0
        for digest, size in refs:
            if budget and digest in self._fetch_cache:
                self._fetch_cache.move_to_end(digest)
                saved += size
                continue
            transferred += size
            if budget:
                self._fetch_cache[digest] = size
                self._fetch_cache_bytes += size
        while self._fetch_cache_bytes > budget:
            _, evicted = self._fetch_cache.popitem(last=False)
            self._fetch_cache_bytes -= evicted
            self.fetch_cache_evictions += 1
        self.fetch_cache_hit_bytes += saved
        self.fetch_cache_miss_bytes += transferred
        self.system.monitor.incr("worker_fetch_bytes", transferred)
        if saved:
            self.system.monitor.incr("worker_fetch_bytes_saved", saved)
        return transferred

    def fetch_cache_stats(self) -> dict:
        """Occupancy and effectiveness of the chunk fetch cache."""
        total = self.fetch_cache_hit_bytes + self.fetch_cache_miss_bytes
        return {
            "entries": len(self._fetch_cache),
            "bytes": self._fetch_cache_bytes,
            "budget_bytes": self.config.fetch_cache_bytes,
            "hit_bytes": self.fetch_cache_hit_bytes,
            "miss_bytes": self.fetch_cache_miss_bytes,
            "evictions": self.fetch_cache_evictions,
            "hit_rate": (self.fetch_cache_hit_bytes / total) if total
            else 0.0,
        }

    def _source_digest(self, archive, project_fs) -> Optional[str]:
        """Content identity of the fetched source tree.

        Free when the upload's manifest carries per-file digests (the
        delta-ingest path); otherwise derived by hashing the unpacked
        tree once — same canonical form either way.
        """
        manifest = getattr(archive, "manifest", None)
        if manifest is not None and manifest.files:
            return manifest.tree_digest()
        files = {path: file_digest(project_fs.read_file(path))
                 for path in project_fs.iter_files("/")}
        return digest_file_map(files) if files else None

    def _check_deadline(self, deadline) -> None:
        if deadline is not None and self.sim.now >= deadline:
            raise JobDeadlineExceeded(
                f"job exceeded its "
                f"{self.config.job_deadline_seconds:.0f}s deadline")

    def _storage_call(self, label: str, fn, deadline, publish_log,
                      span=None):
        """Run a storage operation under the worker's retry policy.

        Generator (``yield from`` it): backoff sleeps happen in simulated
        time.  Only :class:`TransientStorageError` is retried; permanent
        errors and the final transient failure propagate unaltered.
        ``span`` (if given) gets a ``retry`` event per attempt.
        """
        policy = self.config.storage_retry

        def on_retry(attempt, exc):
            self._check_deadline(deadline)
            self.system.monitor.incr("storage_retries")
            if span is not None:
                span.add_event("retry", attempt=attempt,
                               error=f"{type(exc).__name__}: {exc}")
            publish_log(
                "stderr",
                f"⚠ {label} failed ({exc}); "
                f"retry {attempt}/{policy.max_attempts - 1}\n")

        return (yield from policy.call(
            self.sim, fn, rng=self._retry_rng,
            retry_on=(TransientStorageError,), on_retry=on_retry))

    def _verify(self, job: Job):
        credential = self.system.keystore.lookup(job.access_key)
        from repro.auth.signing import verify_request

        body = job.to_message()
        signature = body.pop("signature")
        verify_request(credential.secret_key, body, job.submitted_at,
                       signature)
        return credential

    def _timing_noise(self) -> float:
        """Runtime multiplier; grows with co-running jobs (contention)."""
        base = 1.0 + self.config.solo_jitter * float(self._rng.random())
        others = max(0, self.active_jobs - 1)
        contention = self.config.contention_jitter * others * \
            float(self._rng.random())
        return base + contention

    def _record(self, job: Job, status: JobStatus, exit_code,
                outputs: List[tuple], build_url, attempts: int = 1,
                span=None, service_seconds: Optional[float] = None,
                pool_hit: Optional[bool] = None) -> bool:
        # At-least-once delivery means a job can be processed twice (e.g.
        # a premature stale-sweep redelivered it while the original worker
        # was still alive).  Recording is made effectively-once: whichever
        # delivery records first wins; later ones are suppressed so the
        # submissions collection and the ranking never double-count.
        # Returns True when this call actually recorded.
        record_span = self.system.tracer.start_span(
            "docdb.record", parent=span, kind="docdb",
            attributes={"collection": "submissions"}) if span is not None \
            else None
        submissions = self.system.db.collection("submissions")
        if submissions.find_one({"job_id": job.id}) is not None:
            self.system.monitor.incr("duplicate_records_suppressed")
            self.system.monitor.log("duplicate_record_suppressed",
                                    job_id=job.id, worker=self.id,
                                    attempts=attempts)
            if record_span is not None:
                record_span.set_attribute("duplicate", True)
                record_span.end()
            return False
        stdout = "".join(t for s, t in outputs if s == "stdout")
        stderr = "".join(t for s, t in outputs if s == "stderr")
        elapsed = _ELAPSED_RE.findall(stdout)
        correctness = _CORRECTNESS_RE.findall(stdout)
        time_match = _TIME_RE.search(stderr)
        internal_time = float(elapsed[-1]) if elapsed else None
        instructor_time = float(time_match.group(1)) if time_match else None

        submissions.insert_one({
            "job_id": job.id,
            "attempts": attempts,
            "kind": job.kind.value,
            "username": job.username,
            "team": job.team,
            "worker": self.id,
            "status": status.value,
            "exit_code": exit_code,
            "submitted_at": job.submitted_at,
            "finished_at": self.sim.now,
            # Worker-side service time (fetch + acquire + build + upload):
            # the scheduler's runtime estimator seeds SJF from this.
            "service_seconds": service_seconds,
            "pool_hit": pool_hit,
            "internal_time": internal_time,
            "instructor_time": instructor_time,
            "correctness": float(correctness[-1]) if correctness else None,
            "build_url": build_url,
            "log_bytes": sum(len(t) for _, t in outputs),
            "stdout_tail": stdout[-2000:],
            "stderr_tail": stderr[-2000:],
        })
        self.system.monitor.incr("jobs_recorded")
        if service_seconds is not None:
            # Feed the fair-share estimator that owns this job's key: the
            # shared scheduler, or its partition's instance when sharded.
            note = getattr(self.system, "note_completion", None)
            if note is not None:
                note(job.team or job.username, service_seconds)
            else:
                scheduler = getattr(self.system, "scheduler", None)
                if scheduler is not None:
                    scheduler.note_completion(job.team or job.username,
                                              service_seconds)

        if job.kind is JobKind.SUBMIT and status is JobStatus.SUCCEEDED \
                and internal_time is not None and job.team:
            self.system.ranking.record_final(
                team=job.team,
                internal_time=internal_time,
                instructor_time=instructor_time or internal_time,
                correctness=float(correctness[-1]) if correctness else 0.0,
                username=job.username,
                job_id=job.id,
                at=self.sim.now,
            )
            if record_span is not None:
                record_span.add_event("ranking.recorded", team=job.team)
        if record_span is not None:
            record_span.set_attribute("duplicate", False)
            record_span.end()
        return True
