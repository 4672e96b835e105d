"""Worker and system configuration.

"These limits can be changed using the RAI worker configuration file"
(§V); "the worker can be configured to have multiple jobs in flight"
(§V, Worker Operations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.container.limits import ResourceLimits
from repro.faults.retry import RetryPolicy


@dataclass
class WorkerConfig:
    """Per-worker knobs."""

    #: Jobs accepted concurrently.  1 near deadlines "makes the performance
    #: timing more accurate and repeatable"; >1 early in the project when
    #: CPU time dominates (§V).
    max_concurrent_jobs: int = 1
    #: Container sandbox limits (8 GB / no net / 1 h by default).
    limits: ResourceLimits = field(default_factory=ResourceLimits)
    #: GPU model mounted via the CUDA volume ("K40" on G2, "K80" on P2).
    gpu_model: str = "K80"
    #: Link speed between worker and file server (archive transfer time).
    storage_bandwidth_bps: float = 200e6
    #: Registry pull bandwidth for image-cache misses.
    pull_bandwidth_bps: float = 100e6
    #: Relative runtime jitter when running alone (measurement noise).
    solo_jitter: float = 0.02
    #: Additional relative jitter per concurrent co-running job
    #: (contention; drives the single-vs-multi timing-accuracy ablation).
    contention_jitter: float = 0.35
    #: Serve interactive sessions (§VIII future work) alongside batch jobs.
    enable_interactive: bool = False
    #: Whole-job wall-clock deadline (fetch + pull + build + upload).  The
    #: container lifetime cap only meters *charged* guest time; this closes
    #: the gap so a job can never hold an executor slot forever.  ``None``
    #: disables it.
    job_deadline_seconds: Optional[float] = 3600.0
    #: Retry budget for storage fetch/upload (transient errors only).
    storage_retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Budget of the manifest-aware project-fetch cache (bytes of cached
    #: content the worker can skip re-transferring).  Repeat fetches of
    #: identical or near-identical archives — resubmission storms, job
    #: redelivery — only move the chunks the worker has not seen.  0
    #: disables the cache.
    fetch_cache_bytes: int = 1 << 30
    #: Warm container pool: scrubbed containers kept per image for reuse
    #: across jobs.  0 disables the pool (every job pays the engine's full
    #: create cost).
    warm_pool_size: int = 2
    #: Idle parked containers older than this (sim clock) are destroyed.
    warm_pool_ttl_seconds: float = 900.0
    #: Engine cost of creating a fresh container (namespace + cgroup +
    #: mount setup) — what a pool miss pays at acquire time.
    container_create_seconds: float = 2.0
    #: How long resetting a returned container takes.  The reset starts
    #: when the job releases it, so a warm hit pays only what is left of
    #: it at acquire time (nothing, once idle this long).
    container_reset_seconds: float = 0.2

    def __post_init__(self):
        if self.max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be >= 1")
        if self.fetch_cache_bytes < 0:
            raise ValueError("fetch_cache_bytes must be >= 0")
        if self.job_deadline_seconds is not None \
                and self.job_deadline_seconds <= 0:
            raise ValueError("job_deadline_seconds must be positive")
        if self.warm_pool_size < 0:
            raise ValueError("warm_pool_size must be >= 0")
        if self.warm_pool_ttl_seconds <= 0:
            raise ValueError("warm_pool_ttl_seconds must be positive")
        if self.container_create_seconds < 0 \
                or self.container_reset_seconds < 0:
            raise ValueError("container create/reset seconds must be >= 0")


@dataclass
class SystemConfig:
    """Deployment-wide knobs."""

    upload_bucket: str = "rai-uploads"
    build_bucket: str = "rai-builds"
    #: Client-side upload bandwidth (student's connection).
    client_bandwidth_bps: float = 20e6
    #: Submission rate-limit window (30 s in the course).
    rate_limit_seconds: float = 30.0
    #: Lifetime of uploaded project archives ("between 1 and 3 months").
    upload_lifetime_seconds: float = 30 * 24 * 3600.0
    #: Lifetime of build outputs.
    build_lifetime_seconds: float = 90 * 24 * 3600.0
    #: Presigned build-URL validity.
    presign_expiry_seconds: float = 7 * 24 * 3600.0
    #: Default client-side End-wait timeout.  ``None`` keeps the paper's
    #: behaviour (the client blocks until End arrives — possibly forever
    #: if nothing redelivers a crashed worker's job); a finite value makes
    #: ``submit()`` return a terminal TIMEOUT result instead.
    client_wait_timeout_seconds: Optional[float] = None
    #: Sweep interval of the system dead-letter consumer (opt-in process).
    dead_letter_sweep_seconds: float = 300.0
    #: Content-addressed dedup of project uploads (git-style: the client
    #: chunks the archive, negotiates against its previous manifest, and
    #: transfers only unseen chunks).  Disable to reproduce the seed's
    #: full re-upload per submission.
    dedup_uploads: bool = True
    #: Fixed chunk size of the content-addressed store.
    chunk_size_bytes: int = 4096
    #: End-to-end distributed tracing (``repro.obs``).  Spans are passive
    #: — they never schedule simulator events — so disabling changes only
    #: bookkeeping, never the simulated timeline.
    tracing_enabled: bool = True
    #: Ring capacity of the in-memory trace store (oldest *finished*
    #: traces are evicted first; live traces are never dropped).
    trace_max_traces: int = 512
    #: Fair-share / deadline-aware dequeue on the task channel
    #: (:mod:`repro.sched`).  Disable to reproduce plain FIFO.
    scheduler_enabled: bool = True
    #: Course deadline on the sim clock; jobs submitted within the boost
    #: window before it jump the queue (§VI deadline policy).  ``None``
    #: disables the boost (fair share still applies).
    course_deadline_at: Optional[float] = None
    #: Width of the pre-deadline boost window.
    deadline_boost_window_seconds: float = 24 * 3600.0
    #: Executor-seconds each queued team accrues per fair-share round.
    sched_quantum_seconds: float = 5.0
    #: Structured event log (``repro.obs.events``).  Like tracing it is
    #: passive bookkeeping — disabling changes no simulated timing.
    event_log_enabled: bool = True
    #: Ring capacity of the event log (oldest records drop first).
    event_log_max_events: int = 4096
    #: Metrics-scraper snapshot cadence on the sim clock (the SLO
    #: engine's time-series resolution when ``start_observability`` runs).
    scrape_interval_seconds: float = 60.0
    #: Ring capacity of scraper snapshots (256 × 60 s ≈ 4 h of history).
    scrape_max_samples: int = 256
    #: SLO burn-rate windows: the standard fast (page on a spike) and
    #: slow (confirm it is sustained) pair.
    slo_fast_window_seconds: float = 300.0
    slo_slow_window_seconds: float = 3600.0
    #: Burn rate at/over which *both* windows must sit to fire an alert.
    #: 1.0 = eating the error budget exactly as fast as allowed.
    slo_burn_rate_threshold: float = 1.0
    #: Default objective: p95 queue wait stays under this bound.
    slo_queue_wait_p95_seconds: float = 30.0
    #: Default objective: submission success ratio target.
    slo_success_target: float = 0.99
    #: Control-plane partitions (``repro.shard``): the task topic, the
    #: submissions collection and the scheduler, hash-partitioned by team
    #: key (``tasks.pK`` / ``submissions.pK`` / one scheduler instance per
    #: partition, with occupancy-driven work-stealing between them).
    #: 1 — the default — is the one-partition plane, named as the paper
    #: names it: topic ``rai``, route ``rai/tasks``, ``submissions``.
    shards: int = 1
    #: Seed of the shard map's keyed hash.  Part of durable state: a
    #: restore must rebuild the same map or every routed document and
    #: queue message lands on the wrong partition.
    shard_seed: int = 0
    #: Minimum queued messages a partition must hold before a dry sibling
    #: may steal from it (pull steal and balancer both honour it).
    shard_steal_threshold: int = 2
    #: Sweep period of the opt-in shard balancer process
    #: (``RaiSystem.start_shard_balancer``).
    shard_balance_interval_seconds: float = 30.0
    #: Content-keyed build-artifact cache (``repro.storage.buildcache``):
    #: workers replay recorded ``cmake``/``make`` results instead of
    #: re-executing when the command's observed inputs are unchanged.
    #: Disable to reproduce the always-rebuild path.
    buildcache_enabled: bool = True
    #: Byte budget for unique cached artifact blobs (LRU beyond it).
    buildcache_max_bytes: int = 256 << 20
    #: Idle TTL of a cache entry before eviction.
    buildcache_ttl_seconds: float = 14 * 24 * 3600.0
    #: Fixed per-hit replay latency (cache probe + bookkeeping); the
    #: artifact transfer itself is charged from bytes over the worker's
    #: storage bandwidth.
    buildcache_replay_seconds: float = 0.05
    #: SJF cost multiplier for jobs whose source tree already completed a
    #: cached build (< 1.0 — the scheduler expects mostly cache hits).
    buildcache_hit_cost_factor: float = 0.35
    #: Per-tenant usage metering (``repro.obs.usage``).  Disable to
    #: measure the metering overhead itself or reproduce pre-metering
    #: behaviour; the meter object still exists, every record call
    #: short-circuits.
    usage_metering_enabled: bool = True
    #: Billing window the CostAllocator settles (cloud billing granularity).
    usage_window_seconds: float = 3600.0
    #: Budget-burn period for per-team budget SLOs (the paper's weekly
    #: AWS budget cadence).
    usage_budget_window_seconds: float = 7 * 24 * 3600.0
    #: Course every tenant in this deployment is metered under.
    course_name: str = "ece408"

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shard_seed < 0:
            raise ValueError("shard_seed must be >= 0")
        if self.shard_steal_threshold < 1:
            raise ValueError("shard_steal_threshold must be >= 1")
        if self.shard_balance_interval_seconds <= 0:
            raise ValueError(
                "shard_balance_interval_seconds must be positive")
        if self.buildcache_max_bytes < 0:
            raise ValueError("buildcache_max_bytes must be >= 0")
        if self.buildcache_ttl_seconds <= 0:
            raise ValueError("buildcache_ttl_seconds must be positive")
        if self.buildcache_replay_seconds < 0:
            raise ValueError("buildcache_replay_seconds must be >= 0")
        if not 0.0 < self.buildcache_hit_cost_factor <= 1.0:
            raise ValueError(
                "buildcache_hit_cost_factor must be in (0, 1]")
        if self.usage_window_seconds <= 0:
            raise ValueError("usage_window_seconds must be positive")
        if self.usage_budget_window_seconds <= 0:
            raise ValueError("usage_budget_window_seconds must be positive")
