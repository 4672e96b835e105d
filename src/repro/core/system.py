"""``RaiSystem``: the fully wired deployment of Figure 1.

One object owns the simulation kernel and every service: the message
broker, the S3-style file server (with the paper's lifecycle rules), the
MongoDB-style database, the key store, the rate limiter, the ranking
service, and any number of workers.  Clients are minted per student/team.
"""

from __future__ import annotations

import os
import time as _wallclock
from dataclasses import asdict, fields
from typing import Generator, List, Optional

from repro.auth.keys import KeyStore
from repro.auth.profile import RaiProfile
from repro.broker.broker import MessageBroker
from repro.container.image import ImageRegistry, default_registry
from repro.core.client import RaiClient
from repro.core.config import SystemConfig, WorkerConfig
from repro.core.job import JobStatus, log_message
from repro.core.ranking import RankingService
from repro.core.ratelimit import RateLimiter
from repro.core.worker import RaiWorker
from repro.docdb.database import DocumentDB
from repro.obs import scrape
from repro.obs.alerts import AlertManager
from repro.obs.events import EventLog, EventType
from repro.obs.metrics import MetricsRegistry
from repro.obs.scrape import MetricsScraper
from repro.obs.usage import CostAllocator, UsageMeter
from repro.obs.store import TraceStore
from repro.obs.tracer import Tracer
from repro.sched import JobScheduler, RuntimeEstimator, SchedulerPolicy
from repro.shard import ShardMap, ShardedControlPlane
from repro.sim.kernel import Simulator
from repro.sim.monitor import Monitor
from repro.sim.random import RandomStreams
from repro.storage.buildcache import BuildCache
from repro.storage.lifecycle import LifecycleRule
from repro.storage.object_store import ObjectStore

#: Uploaded project archives expire one month after last use, build
#: outputs three months after creation ("between 1 and 3 months", §V).
UPLOAD_LIFETIME_SECONDS = 30 * 24 * 3600.0
BUILD_LIFETIME_SECONDS = 90 * 24 * 3600.0


class RaiSystem:
    """A complete RAI deployment on one simulation kernel."""

    #: Always None: schedulers live on the control plane
    #: (``self.shards.schedulers``).  Kept only for its last reader,
    #: bench/harness.py:285, which falls back to the plane when it is None.
    scheduler = None

    def __init__(self, seed: int = 0,
                 config: Optional[SystemConfig] = None,
                 registry: Optional[ImageRegistry] = None):
        self.config = config or SystemConfig()
        self.sim = Simulator()
        self.rng = RandomStreams(seed)
        #: The deployment-wide metrics registry: every counter, gauge, and
        #: histogram in the system lives here, and each one has a reader
        #: (the health report, the SLOs, ``rai top``, the benchmark).
        self.metrics = MetricsRegistry()
        self.monitor = Monitor(self.metrics)
        #: The deployment tracer; one submission = one trace spanning
        #: client → broker → worker → container → storage → docdb.
        self.tracer = Tracer(
            clock=lambda: self.sim.now,
            store=TraceStore(),
            enabled=self.config.observers_enabled)
        #: The deployment-wide structured event log: state changes, slot
        #: churn, redeliveries, faults, pool traffic, scaling decisions,
        #: alert transitions — one queryable, trace-linked stream.
        self.events = EventLog(
            clock=lambda: self.sim.now,
            enabled=self.config.observers_enabled)
        #: Per-tenant usage metering + fleet-cost attribution
        #: (``repro.obs.usage``).  Every layer below meters into
        #: ``self.usage``; the allocator prices it against whatever
        #: :class:`~repro.cluster.Provisioner`\s attach themselves.
        self.usage = UsageMeter(
            clock=lambda: self.sim.now,
            course=self.config.course_name,
            enabled=self.config.observers_enabled)
        self.cost_allocator = CostAllocator(
            self.usage, clock=lambda: self.sim.now, events=self.events)

        self.broker = MessageBroker(self.sim, metrics=self.metrics,
                                    tracer=self.tracer, events=self.events)
        self.broker.usage = self.usage
        self.storage = ObjectStore(self.sim)
        self.storage.usage = self.usage
        #: Content-keyed build-artifact cache shared by every worker
        #: (``repro.storage.buildcache``); None reproduces the
        #: always-rebuild path.
        self.build_cache: Optional[BuildCache] = None
        if self.config.buildcache_enabled:
            self.build_cache = BuildCache(
                clock=lambda: self.sim.now, events=self.events)
        self.db = DocumentDB(self.sim)
        self.db.usage = self.usage

        #: The control plane (``repro.shard``): task topics, one fair-share
        #: scheduler per partition, stealing.  ``shards=1`` is its
        #: one-partition case — the paper's ``rai`` / ``rai/tasks``.
        self.shards = ShardedControlPlane(
            self.broker,
            ShardMap(self.config.shards), events=self.events,
            scheduler_factory=self._partition_scheduler,
            workers_fn=lambda: self.workers)
        # The per-job dedup probe (worker._record, dead-letter drain) runs
        # once per submission; an index keeps it O(1) instead of a scan
        # over every submission the course has ever recorded.
        self.db.collection("submissions").create_index("job_id")
        # The scheduler's runtime estimator queries history per team and
        # per user; index both so SJF seeding stays O(matches).
        self.db.collection("submissions").create_index("team")
        self.db.collection("submissions").create_index("username")
        self.registry = registry if registry is not None else default_registry()
        self.keystore = KeyStore(rng=self.rng.stream("keystore"))
        self.rate_limiter = RateLimiter(
            clock=lambda: self.sim.now,
            window_seconds=self.config.rate_limit_seconds)
        self.ranking = RankingService(self.db)
        self.workers: List[RaiWorker] = []

        # File-server buckets and the paper's lifetime rules (§IV/§V).
        uploads = self.storage.create_bucket(self.config.upload_bucket)
        uploads.add_lifecycle_rule(LifecycleRule(
            expire_after=UPLOAD_LIFETIME_SECONDS, since="last_use"))
        builds = self.storage.create_bucket(self.config.build_bucket)
        builds.add_lifecycle_rule(LifecycleRule(
            expire_after=BUILD_LIFETIME_SECONDS, since="creation"))

        # Callback gauges: live deployment signals the health report
        # averages over the scraper's samples; ``in_flight`` is for
        # ``rai top`` and the benchmark's leak check.
        self.metrics.gauge("queue_depth", fn=self.queue_depth)
        self.metrics.gauge("workers_running",
                           fn=lambda: len(self.running_workers))
        self.metrics.gauge("jobs_active", fn=lambda: sum(
            w.active_jobs for w in self.running_workers))
        self.metrics.gauge("in_flight", fn=lambda: sum(
            len(channel.in_flight)
            for topic in self.broker.topics.values()
            for channel in topic.channels.values()))

        # The SLO loop: scraper (registry snapshots on the sim clock) →
        # alert manager (multi-window burn rates over the two objectives,
        # fire/resolve recorded back into the event log).  Both are always
        # constructed — `rai slo`/`rai alerts` work on demand;
        # :meth:`start_observability` adds the periodic loop.
        self.scraper = MetricsScraper(self.metrics,
                                      clock=lambda: self.sim.now)
        self.alerts = AlertManager(self.scraper, events=self.events)

        #: :class:`~repro.durability.DurabilityManager` once
        #: :meth:`attach_durability` (or :meth:`restore`) wires one in;
        #: None means the deployment is memory-only, as before.
        self.durability = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def standard(cls, num_workers: int = 1, seed: int = 0,
                 config: Optional[SystemConfig] = None) -> "RaiSystem":
        """A ready-to-use deployment with ``num_workers`` default workers."""
        system = cls(seed=seed, config=config)
        for _ in range(num_workers):
            system.add_worker()
        return system

    def add_worker(self, config: Optional[WorkerConfig] = None) -> RaiWorker:
        # Worker ids are per-system (not the class-global counter) so that
        # RNG stream names — and thus timing jitter — are reproducible
        # across runs with the same seed.
        worker_id = f"worker-{len(self.workers) + 1:04d}"
        # Each worker owns a copy of its config; home partitions go
        # round-robin.
        worker = RaiWorker(
            self, worker_id=worker_id,
            config=WorkerConfig(**vars(config)) if config is not None else None,
            partition=self.shards.assign_partition())
        self.workers.append(worker)
        return worker

    def remove_worker(self, worker: Optional[RaiWorker] = None) -> None:
        """Stop (and drop) a worker — the scale-in path."""
        if worker is None:
            running = [w for w in self.workers if w.is_running]
            if not running:
                return
            worker = running[-1]
        worker.stop()

    @property
    def running_workers(self) -> List[RaiWorker]:
        return [w for w in self.workers if w.is_running]

    def new_client(self, team: Optional[str] = None,
                   username: Optional[str] = None,
                   on_line=None) -> RaiClient:
        """Issue credentials and hand back a configured client."""
        if username is None:
            username = f"student{len(self.keystore) + 1:03d}"
        credential = self.keystore.issue(username, team=team)
        if self.durability is not None:
            self.durability.auth_issue(asdict(credential))
        profile = RaiProfile(username=credential.username,
                             access_key=credential.access_key,
                             secret_key=credential.secret_key)
        return RaiClient(self, profile, team=team, on_line=on_line)

    def start_caretaker(self, interval: float = 60.0,
                        in_flight_timeout: float = 2 * 3600.0):
        """Start the broker's stale-message sweeper (at-least-once jobs).

        Opt-in because it is a perpetual process: a simulation with a
        caretaker never runs out of events, so drive it with
        ``run(until=...)``.
        """
        return self.sim.process(self.broker.caretaker(
            interval=interval, in_flight_timeout=in_flight_timeout))

    def start_observability(self):
        """Start the periodic scrape → SLO-judge → alert loop.

        Opt-in like the caretaker (a perpetual process); also arms the
        alert manager's scraper watchdog, so a wedged loop is itself an
        alert.  Without this, ``rai slo`` / ``rai alerts`` still work by
        scraping on demand — they just lack between-call history.
        """
        interval = scrape.INTERVAL_SECONDS
        self.alerts.arm_watchdog(grace=3 * interval)

        def scrape_then_judge():
            # Sample the registry, settle billing windows, then judge
            # SLOs against the fresh sample.
            now = self.scraper.scrape_now().time
            self.cost_allocator.refresh(now)
            self.alerts.check(now=now, scrape=False)

        return self.sim.process(
            self.sim.every(interval, scrape_then_judge))

    # -- failure recovery ------------------------------------------------------

    def drain_dead_letters(self) -> int:
        """One sweep: move every dead-lettered message into the docdb.

        Poison task messages (malformed, or redelivered past the attempt
        budget) must not vanish silently: each lands in ``submissions``
        with a ``dead_lettered`` status, and any client still waiting on
        the job's log topic is unblocked with a terminal End message.
        """
        drained = 0
        submissions = self.db.collection("submissions")
        for route, message in self.broker.drain_dead_letters():
            body = message.body if isinstance(message.body, dict) else {}
            job_id = body.get("job_id")
            if job_id is None or \
                    submissions.find_one({"job_id": job_id}) is None:
                submissions.insert_one({
                    "job_id": job_id,
                    "kind": body.get("kind"),
                    "username": body.get("username"),
                    "team": body.get("team"),
                    "worker": None,
                    "status": JobStatus.DEAD_LETTERED.value,
                    "exit_code": None,
                    "submitted_at": body.get("submitted_at"),
                    "finished_at": self.sim.now,
                    "route": route,
                    "attempts": message.attempts,
                    "message_id": message.id,
                })
            if job_id is not None and f"log_{job_id}" in self.broker.topics:
                self.broker.publish(f"log_{job_id}", log_message(
                    "end", self.sim.now, None, {
                        "status": JobStatus.DEAD_LETTERED.value,
                        "exit_code": None,
                        "reason": f"task message dead-lettered after "
                                  f"{message.attempts} delivery attempts"}))
            drained += 1
            self.monitor.incr("dead_letters_drained")
            headers = message.headers or {}
            self.events.emit(EventType.JOB_STATE_CHANGE,
                             trace_id=headers.get("trace_id"),
                             span_id=headers.get("span_id"),
                             job_id=job_id, team=body.get("team"),
                             status=JobStatus.DEAD_LETTERED.value,
                             route=route, attempts=message.attempts)
        return drained

    def start_dead_letter_consumer(self, interval: float = 300.0):
        """Start the periodic dead-letter drain (opt-in, like the
        caretaker: it is a perpetual process)."""
        return self.sim.process(
            self.sim.every(interval, self.drain_dead_letters))

    def start_fault_plan(self, plan):
        """Arm a :class:`~repro.faults.FaultPlan` against this deployment;
        returns the started :class:`~repro.faults.FaultInjector`."""
        from repro.faults.injector import FaultInjector

        return FaultInjector(self, plan).start()

    # -- durability ----------------------------------------------------------

    def attach_durability(self, path: str, checkpoint: bool = True):
        """Start journaling every control-plane mutation under ``path``.

        An initial checkpoint captures the state that predates the
        journal (buckets, indexes, anything already submitted), so the
        directory alone is always sufficient to restore — pass
        ``checkpoint=False`` only when the caller checkpoints itself.
        """
        from repro.durability.manager import DurabilityManager

        manager = DurabilityManager(self, path)
        self.durability = manager
        self._set_journal(manager)
        for cred in self.keystore.credentials():
            manager.auth_issue(asdict(cred))
        if checkpoint:
            manager.checkpoint()
        return manager

    def _set_journal(self, journal) -> None:
        """Point every journaled service at ``journal`` (None = stop)."""
        self.db.journal = self.broker.journal = self.storage.journal = journal

    def checkpoint(self) -> dict:
        """Snapshot-and-compact now (requires :meth:`attach_durability`)."""
        if self.durability is None:
            raise RuntimeError("no durability directory attached")
        return self.durability.checkpoint()

    def start_checkpointer(self, interval: float = 3600.0):
        """Periodic checkpointing (opt-in perpetual process, like the
        caretaker).  A write that fails (a full disk) is counted as
        ``checkpoints_failed``; the WAL keeps journaling and the next
        tick tries again."""

        def checkpoint_if_journaling():
            if self.durability is not None and self.durability.active:
                try:
                    self.durability.checkpoint()
                except OSError:
                    self.monitor.incr("checkpoints_failed")

        return self.sim.process(
            self.sim.every(interval, checkpoint_if_journaling))

    def crash_stop(self) -> None:
        """Die without ceremony: stop journaling, take no final snapshot.

        Models the process being killed — the durability directory is
        left exactly as the last append left it (possibly mid-record),
        which is what :meth:`restore` must recover from.  The in-memory
        system is abandoned, not unwound.
        """
        if self.durability is not None:
            self.durability.close()
        self._set_journal(None)

    @classmethod
    def restore(cls, path: str, num_workers: int = 1) -> "RaiSystem":
        """Cold-start a deployment from a durability directory.

        Builds a fresh system (configured from the snapshot), installs the
        last checkpoint, replays the WAL suffix, requeues orphaned
        in-flight deliveries (skipping jobs whose terminal record survived
        — exactly-once), rebuilds chunk refcounts, advances id watermarks,
        fast-forwards the clock, and finally re-arms journaling with a
        fresh compacting checkpoint.
        Workers are added last, so recovery itself executes nothing.
        """
        from repro.durability.manager import DurabilityManager
        from repro.durability.snapshot import load_snapshot

        started = _wallclock.perf_counter()
        snap = load_snapshot(
            os.path.join(path, DurabilityManager.SNAPSHOT_FILE))
        config, dropped = None, []
        if snap is not None and snap.get("config"):
            # A snapshot may name fields this build no longer has (written
            # before they were retired): drop them, and say so below.
            known = {f.name for f in fields(SystemConfig)}
            dropped = sorted(set(snap["config"]) - known)
            config = SystemConfig(**{k: v for k, v in snap["config"].items()
                                     if k in known})
        system = cls(config=config)
        manager = DurabilityManager(system, path)
        # Recovery meters nothing: the books are the snapshot's.
        system.db.usage = system.broker.usage = system.storage.usage = None
        counts = manager.recover(snap)
        system.db.usage = system.broker.usage = system.storage.usage = \
            system.usage
        system.durability = manager
        system._set_journal(manager)
        manager.checkpoint()
        for _ in range(num_workers):
            system.add_worker()
        elapsed = _wallclock.perf_counter() - started
        system.events.emit(
            EventType.DURABILITY_REPLAY,
            duration_s=round(elapsed, 6),
            snapshot=counts.get("snapshot") is not None,
            replayed=counts["replayed"], torn=counts["torn"],
            discarded=counts["discarded"], requeued=counts["requeued"],
            fenced=counts["fenced"], anomalies=counts["anomalies"],
            dropped_config=dropped)
        return system

    # -- running ------------------------------------------------------------

    def run(self, process_or_generator=None, until: Optional[float] = None):
        """Run a client/driver generator to completion (or to ``until``)."""
        if process_or_generator is None:
            return self.sim.run(until=until)
        if isinstance(process_or_generator, Generator):
            process_or_generator = self.sim.process(process_or_generator)
        return self.sim.run(until=process_or_generator)

    def run_all(self, generators) -> list:
        """Run several submissions concurrently; returns their results."""
        processes = [self.sim.process(g) if isinstance(g, Generator) else g
                     for g in generators]
        done = self.sim.all_of(processes)
        self.sim.run(until=done)
        return [p.value for p in processes]

    # -- sharding ------------------------------------------------------------

    def _partition_scheduler(self, partition: int) -> JobScheduler:
        """The fair-share scheduler instance for one plane partition."""
        return JobScheduler(
            clock=lambda: self.sim.now,
            policy=SchedulerPolicy(
                deadline_at=self.config.course_deadline_at),
            estimator=RuntimeEstimator(history_fn=self._service_history),
            metrics=self.metrics, events=self.events,
            hit_predictor=(self._predict_build_hit
                           if self.build_cache is not None else None))

    def _predict_build_hit(self, msg) -> bool:
        """SJF hint: has this message's source tree built here before?

        Purely advisory — a wrong guess only perturbs queue ordering by
        the cost factor, never correctness.
        """
        cache = self.build_cache
        if cache is None or not cache.sources_seen:
            return False        # nothing has built here: nothing can hit
        body = getattr(msg, "body", None)
        if not isinstance(body, dict):
            return False
        return cache.seen_source(body.get("source_digest"))

    # -- observability ------------------------------------------------------

    def _service_history(self, key: str) -> List[float]:
        """Past service times for a fair-share key (team, else username).

        Seeds the scheduler's shortest-expected-job-first estimator from
        the submissions collection, so a restarted deployment remembers
        which teams run long jobs.
        """
        if not key:
            return []
        submissions = self.db.collection("submissions")
        docs = list(submissions.find({"team": key})) or \
            list(submissions.find({"username": key}))
        docs.sort(key=lambda d: d.get("finished_at") or 0.0)
        return [float(d["service_seconds"]) for d in docs
                if d.get("service_seconds")]

    def fleet_slot_utilization(self) -> float:
        """Instantaneous busy fraction of live executor slots."""
        slots = sum(w.slot_count for w in self.running_workers)
        active = sum(w.active_jobs for w in self.running_workers)
        return active / slots if slots else 0.0

    def fleet_pool_hit_rate(self) -> float:
        """Warm-pool hit fraction across every worker's acquires."""
        hits = sum(w.pool.hits for w in self.workers)
        total = hits + sum(w.pool.misses for w in self.workers)
        return hits / total if total else 0.0

    def queue_depth(self) -> int:
        """Jobs waiting in the task queues (incl. topic backlog)."""
        return self.shards.queue_depth()

    def stats(self) -> dict:
        submissions = self.db.collection("submissions")
        return {
            "now": self.sim.now,
            "workers": {
                "total": len(self.workers),
                "running": len(self.running_workers),
                "jobs_completed": sum(w.jobs_completed for w in self.workers),
                "jobs_failed": sum(w.jobs_failed for w in self.workers),
            },
            "queue_depth": self.queue_depth(),
            "dead_letters": self.broker.dead_letter_count(),
            "scheduler": self.shards.wait_stats(),
            "shards": self.shards.stats(),
            "warm_pool": {
                "hit_rate": self.fleet_pool_hit_rate(),
                "pooled": sum(w.pool.pooled_count for w in self.workers),
            },
            "submissions_recorded": len(submissions),
            "storage": self.storage.stats(),
            "buildcache": (self.build_cache.stats()
                           if self.build_cache is not None else None),
            "database": self.db.stats(),
            "broker_counters": self.broker.counters.as_dict(),
            "rate_limiter": {
                "accepted": self.rate_limiter.total_accepted,
                "rejected": self.rate_limiter.total_rejected,
            },
            "events": self.events.stats(),
            "alerts": self.alerts.stats(),
            "usage": self.usage.stats(),
            "cost": self.cost_allocator.stats(),
        }
