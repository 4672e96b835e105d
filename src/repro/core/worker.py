"""The RAI worker: §V "Worker Operations", one node's side of it.

The paper's six steps, with the :data:`repro.core.pipeline.STAGES` stage
each became — and, in brackets, what an interactive session (§VIII,
:data:`~repro.core.pipeline.SESSION_STAGES`) does there instead:

1. subscribe to the ``rai`` topic's task channel (the worker's home
   partition's, when the control plane has several) — ``_executor_loop``
   [the same loop on ``rai-interactive/sessions``, not a slot];
2. on a message: parse, check credentials, extract the build spec —
   ``_process_job`` parses, stage ``admit`` does the rest [then ``resume``:
   a redelivered session died with its worker and is ended, not re-run];
3. start a Docker container from the job's base image (pulling on a cache
   miss), with limited RAM, no network, the CUDA volume mounted, and all
   stdout/stderr piped to the ``log_${job_id}`` topic — ``acquire``, which
   waits only for what is still missing: the worker began pulling the
   course image, and parked :data:`WARM_POOL_SIZE` containers per slot, when
   it started (``_fill_pool``);
4. download the client's project archive and mount it at ``/src``
   (read-only), with a writable ``/build`` working directory — ``fetch``
   (which also unpacks), run before 3 so a bad upload costs no container
   [skipped, ``/src`` unmounted, when the session brings no project];
5. execute the build-file commands in the container — ``build`` [``serve``:
   the commands the student sends, one ``exec`` at a time];
6. archive ``/build``, upload it to the file server, send its URL and the
   ``End`` message, and destroy the container — ``upload``, ``record``,
   then ``_finish`` [no archive; ``record`` writes the transcript].

This module is the node: slots, executor loops, lifecycle, the chunk
fetch cache, the build-cache index.  A worker runs ``max_concurrent_jobs``
executor loops.  Near deadlines the course set this to 1 because exclusive
use "makes the performance timing more accurate and repeatable" —
reproduced here as contention jitter that scales with the number of
co-running jobs.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Dict, List, Optional, Set

from repro.broker.client import Consumer
from repro.buildspec.defaults import default_build_spec
from repro.container.pool import WarmContainerPool
from repro.container.runtime import ContainerRuntime
from repro.core.config import WorkerConfig
from repro.core.interactive import SESSION_ROUTE
from repro.core.job import Job, JobKind, JobStatus
from repro.core.pipeline import FAILURE_ERRORS, JobRun, fail
from repro.errors import ContainerError, Interrupt
from repro.gpu.device import get_device
from repro.vfs import pack_tree  # noqa: F401  (bench/tests pins this copy)

#: The image a worker pulls and fills its pool with from boot: the one
#: Listing 1, the course's default build file, names.
COURSE_IMAGE = default_build_spec().image

#: Relative runtime jitter of a job running alone (measurement noise).
SOLO_JITTER = 0.02
#: Additional relative jitter per concurrent co-running job (contention;
#: drives the single-vs-multi timing-accuracy ablation).
CONTENTION_JITTER = 0.35

#: Warm pool depth: scrubbed containers kept per image *per slot* — two
#: lets a busy slot run its job on one while the one it returned a job
#: ago resets.  A starting worker pulls the course image and fills the
#: pool with ``WARM_POOL_SIZE * max_concurrent_jobs`` of them, ready once
#: that pull and a create are done.
WARM_POOL_SIZE = 2
#: Budget of the manifest-aware project-fetch cache (bytes of cached
#: content the worker can skip re-transferring): repeat fetches of
#: identical or near-identical archives — resubmission storms, job
#: redelivery — only move the chunks the worker has not seen.
FETCH_CACHE_BYTES = 1 << 30


def _defuse_interrupt_failure(process_event) -> None:
    if not process_event._ok and isinstance(process_event._value, Interrupt):
        process_event._defused = True


class RaiWorker:
    """One worker node (an "agent that starts a sandboxed environment to
    execute students' code", §IV)."""

    def __init__(self, system, config: Optional[WorkerConfig],
                 worker_id: str, partition: int = 0):
        self.system = system
        self.sim = system.sim
        self.config = config or WorkerConfig()
        self.id = worker_id
        self.gpu = get_device(self.config.gpu_model)
        self.runtime = ContainerRuntime(
            registry=system.registry,
            pull_bandwidth_bps=self.config.pull_bandwidth_bps,
            clock=lambda: self.sim.now,
        )
        self.pool = WarmContainerPool(
            self.runtime,
            clock=lambda: self.sim.now,
            # Per slot: one container runs the slot's job while the one it
            # returned a job ago resets, so a busy slot's next job takes
            # that one, not the one it just gave back.
            max_per_image=WARM_POOL_SIZE * self.config.max_concurrent_jobs,
            reset_seconds=self.config.container_reset_seconds,
            events=system.events,
            owner=self.id,
            usage=system.usage,
        )
        self._rng = system.rng.stream(f"worker:{self.id}")
        # Backoff jitter draws from its own stream so retries never perturb
        # the timing-noise sequence of a fault-free run with the same seed.
        self._retry_rng = system.rng.stream(f"worker:{self.id}:retry")
        self._stopped = False
        self._crashed = False
        #: Home partition on the control plane (``RaiSystem.add_worker``
        #: assigns them round-robin); its slots consume that partition's
        #: task channel and steal from siblings when it runs dry.
        self.partition = partition
        # Manifest-aware fetch cache: content digests (chunk hashes, or
        # whole-object etags for non-chunked objects) this worker already
        # transferred, LRU-bounded by FETCH_CACHE_BYTES.  A repeat fetch
        # of identical content is near-free; a resubmission with small
        # edits transfers only its changed chunks.
        self._fetch_cache: "OrderedDict[str, int]" = OrderedDict()
        self._fetch_cache_bytes = 0
        self.fetch_cache_hit_bytes = 0
        self.fetch_cache_miss_bytes = 0
        self.fetch_cache_evictions = 0
        # Build-cache index: primary key → content keys this worker knows
        # the shared cache holds — a copy of each bucket its probes
        # fetched, plus the entries it captured.  An entry never changes
        # (its key hashes its inputs), so a hit on a key held here needs
        # no round trip.  Soft state like the fetch cache.
        self.buildcache_index: Dict[str, Set[str]] = {}
        #: Open worker.job spans (one per in-flight job) so a crash can
        #: annotate and close them — the interrupted generators never
        #: reach their own finally blocks' span bookkeeping in time.
        self._active_spans: List = []
        self.active_jobs = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.busy_seconds = 0.0
        self.started_at = self.sim.now
        # Per-slot live-time accounting: utilization's denominator counts
        # only seconds each concurrency slot actually existed, so slots
        # retired mid-run do not skew the busy fraction the autoscaler
        # reads.
        self._slot_counter = itertools.count()
        self._slot_open: dict = {}
        self._slot_seconds_closed = 0.0
        self._executors: List = []
        if self.pool.enabled:
            # First, so the fill is parked before any slot claims a job.
            self.sim.process(self._fill_pool())
        for _ in range(self.config.max_concurrent_jobs):
            self._spawn_slot()
        if self.config.enable_interactive:
            # Sessions (§VIII) are jobs on their own route, one at a time:
            # an executor that is not a slot.
            proc = self.sim.process(self._executor_loop(None, SESSION_ROUTE))
            proc.callbacks.append(_defuse_interrupt_failure)
            self._executors.append(proc)

    def _emit(self, type: str, span=None, **fields) -> None:
        self.system.events.emit(type, span=span, worker=self.id, **fields)

    def _fill_pool(self):
        """Warm from boot: start pulling the course image and park
        :data:`WARM_POOL_SIZE` containers for each slot, each ready once the
        pull and a create are done, so no first job on a slot waits for
        either from its own claim.  A kernel process, so it runs at the
        worker's first instant of simulated time: after an operator's
        pre-pull, which leaves it only the create, and inside the run that
        counts its bytes."""
        try:
            pull = self.pool.fill(COURSE_IMAGE, self.pool.max_per_image)
        except ContainerError:          # a course that does not offer it
            return
        yield from ()       # a process, with nothing of its own to wait for

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

    def utilization(self) -> float:
        """Busy fraction of the slot-seconds this worker actually offered.

        The denominator is per-slot live time (not uptime × configured
        concurrency), so slots retired mid-run are weighted by how long
        they really existed.
        """
        denom = self.slot_seconds()
        return self.busy_seconds / denom if denom > 0 else 0.0

    # -- the executor loop ------------------------------------------------------

    def _executor_loop(self, slot: Optional[int], route: Optional[str] = None):
        # ``route`` is given (and ``slot`` is not) by the session executor;
        # a slot takes the home partition's stealing consumer.
        consumer = Consumer(self.system.broker, route) if route \
            else self.system.shards.consumer(self.partition)
        try:
            while not self._stopped:
                # Prefetch: claim an already-queued message synchronously
                # (one scheduler round-trip per *batch*, not per message);
                # park on the blocking get only when nothing is ready.
                # try_deliver never steals from another executor's pending
                # blocking get, so idle slots still wake fairly.
                message = consumer.try_get()
                if message is None:
                    get_event = consumer.get()
                    try:
                        message = yield get_event
                    except Interrupt:
                        consumer.cancel(get_event)
                        break
                    if message is None:
                        continue    # woken: work is queued on a sibling
                if self._stopped:
                    consumer.requeue(message)
                    break
                start = self.sim.now
                try:
                    outcome = yield from self._process_job(message)
                except Interrupt:
                    if not self._crashed:
                        # Graceful scale-down: the job was already
                        # consumed and its failure reported; ack it.
                        # A *crash* acks nothing — the caretaker will
                        # redeliver the message to another worker.
                        consumer.ack(message)
                    break
                finally:
                    self.busy_seconds += self.sim.now - start
                if outcome is False:
                    # Unparseable message: requeue it (another worker
                    # generation might understand it) until the attempt
                    # budget routes it to the dead-letter list, where the
                    # system dead-letter consumer picks it up.
                    # Its broker.dead_letter event is the audit record.
                    consumer.requeue(message)
                else:
                    # The job was parsed out of the body long ago and the
                    # envelope is never touched again: recycle it.
                    consumer.ack_release(message)
        finally:
            consumer.close()
            self._close_slot(slot)

    # -- job processing ------------------------------------------------------

    def _process_job(self, message):
        """One delivery: the stages in order, then exactly one ``End``.

        False (the executor requeues toward the dead-letter path) for a
        message that is not a job; otherwise the outcome is the last
        stage's, a ``FAILURES`` row's, or "worker shutting down".
        """
        try:
            job = Job.from_message(message.body)
        except (KeyError, TypeError, ValueError) as exc:
            # A malformed task message (version skew, junk on the queue)
            # must not crash the worker; count it once, on first sight.
            if message.attempts <= 1:
                self.jobs_failed += 1
            self._emit("worker.malformed_message", message_id=message.id,
                       attempts=message.attempts,
                       error=f"{type(exc).__name__}: {exc}")
            return False
        run = JobRun(self, job, message)
        self.active_jobs += 1
        self._active_spans.append(run.span)
        try:
            for stage in run.stages:
                run.stage = stage.__name__
                yield from stage(run) or ()     # plain function: no waits
        except Interrupt:
            run.release_container()
            if not self._crashed:
                run.log("stderr", "✗ worker shutting down mid-job\n")
                run.status = JobStatus.FAILED
                run.write_record(run)
            raise
        except FAILURE_ERRORS as exc:
            if not fail(run, exc):
                raise
        finally:
            self._finish(run)

    def _finish(self, run: JobRun) -> None:
        """The one terminal reply, however the stages ended."""
        run.release_container()
        job, status, wspan = run.job, run.status, run.span
        if status is JobStatus.SUCCEEDED:
            self.jobs_completed += 1
        else:
            self.jobs_failed += 1
        if not self._crashed:
            # A crashed worker's job is not *finished*: it publishes and
            # acks nothing, the broker redelivers the message, and that
            # attempt (which re-runs the work) bills, feeds the success-
            # ratio SLO and sends End.  Attribution rides the job document,
            # so a redelivered or stolen job still bills its own team.
            self.system.usage.record_job(
                job.team or job.username, job_id=job.id,
                trace_id=wspan.trace_id, container_seconds=run.exec_seconds,
                gpu_seconds=run.exec_seconds if self.gpu is not None else 0.0,
                slot_seconds=self.sim.now - run.started_at,
                bytes_downloaded=run.fetch_bytes,
                bytes_uploaded=run.upload_bytes,
                build_seconds_saved=run.saved_seconds)
            if job.kind is not JobKind.SESSION:
                # The success-ratio SLO judges graded work only.
                self.system.metrics.counter(
                    "jobs_finished", status=status.value).inc()
            self._emit("job.state_change", span=wspan, job_id=job.id,
                       team=job.team, status=status.value,
                       exit_code=run.exit_code, worker_final=True)
            # The End message carries the publish span's context so the
            # client-side delivery joins the trace.
            end_span = self.system.tracer.start_span(
                "result.publish", parent=wspan, kind="worker",
                attributes={"status": status.value})
            run.publish("end", status=status.value, exit_code=run.exit_code,
                        _headers=end_span.headers(),
                        **({} if run.reason is None
                           else {"reason": run.reason}))
            end_span.end()
        wspan.set_attribute("status", status.value)
        # Safety net: ends whatever children an exceptional unwind
        # (deadline, interrupt) left open, then the job span itself.
        # A crash already ended the subtree with an error status.
        self.system.tracer.end_subtree(wspan)
        if wspan in self._active_spans:
            self._active_spans.remove(wspan)
        run.producer.close()
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
        transferred = 0
        saved = 0
        for digest, size in refs:
            if digest in self._fetch_cache:
                self._fetch_cache.move_to_end(digest)
                saved += size
                continue
            transferred += size
            self._fetch_cache[digest] = size
            self._fetch_cache_bytes += size
        while self._fetch_cache_bytes > FETCH_CACHE_BYTES:
            _, evicted = self._fetch_cache.popitem(last=False)
            self._fetch_cache_bytes -= evicted
            self.fetch_cache_evictions += 1
        self.fetch_cache_hit_bytes += saved
        self.fetch_cache_miss_bytes += transferred
        return transferred

    def fetch_cache_stats(self) -> dict:
        """Occupancy and effectiveness of the chunk fetch cache."""
        total = self.fetch_cache_hit_bytes + self.fetch_cache_miss_bytes
        return {
            "entries": len(self._fetch_cache),
            "bytes": self._fetch_cache_bytes,
            "budget_bytes": FETCH_CACHE_BYTES,
            "hit_bytes": self.fetch_cache_hit_bytes,
            "miss_bytes": self.fetch_cache_miss_bytes,
            "evictions": self.fetch_cache_evictions,
            "hit_rate": (self.fetch_cache_hit_bytes / total) if total
            else 0.0,
        }

    def _timing_noise(self) -> float:
        """Runtime multiplier; grows with co-running jobs (contention)."""
        base = 1.0 + SOLO_JITTER * float(self._rng.random())
        others = max(0, self.active_jobs - 1)
        contention = CONTENTION_JITTER * others * float(self._rng.random())
        return base + contention
