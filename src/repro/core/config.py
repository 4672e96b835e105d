"""Worker and system configuration.

The paper's worker configuration file held a handful of knobs: the
sandbox limits ("These limits can be changed using the RAI worker
configuration file", §V), the number of jobs in flight ("the worker can
be configured to have multiple jobs in flight", §V, Worker Operations)
and the GPU the CUDA volume mounts.  Those are ``limits``,
``max_concurrent_jobs`` and ``gpu_model`` below.  The other fields are
the deployment settings (bucket names, course, deadline), the knobs a
bench or example varies, and the off switches the observer and cache
invariants are stated over.  A number nothing varies is not a field: it
is a named constant beside its one reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.container.limits import ResourceLimits


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
    #: Serve interactive sessions (§VIII future work) alongside batch jobs.
    enable_interactive: bool = False
    #: How long resetting a returned container takes.  The reset starts
    #: when the job releases it, so a warm hit pays only what is left of
    #: it at acquire time (nothing, once idle this long).
    container_reset_seconds: float = 0.2

    def __post_init__(self):
        if self.max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be >= 1")
        if self.container_reset_seconds < 0:
            raise ValueError("container_reset_seconds must be >= 0")


@dataclass
class SystemConfig:
    """Deployment-wide knobs."""

    upload_bucket: str = "rai-uploads"
    build_bucket: str = "rai-builds"
    #: Submission rate-limit window (30 s in the course).
    rate_limit_seconds: float = 30.0
    #: The observers of ``repro.obs``: tracing, the structured event log
    #: and per-tenant usage metering.  Each is passive bookkeeping — none
    #: schedules a simulator event — so turning them off changes no
    #: simulated timing; the objects still exist and short-circuit.
    observers_enabled: bool = True
    #: Course deadline on the sim clock; jobs submitted within the boost
    #: window before it jump the queue (§VI deadline policy).  ``None``
    #: disables the boost (fair share still applies).
    course_deadline_at: Optional[float] = None
    #: Control-plane partitions (``repro.shard``): the task topic and the
    #: scheduler, hash-partitioned by team key (``tasks.pK`` / one
    #: scheduler instance per partition, with work-conserving stealing
    #: between them).  ``submissions`` stays one collection.
    #: 1 — the default — is the one-partition plane, named as the paper
    #: names it: topic ``rai``, route ``rai/tasks``.
    shards: int = 1
    #: Content-keyed build-artifact cache (``repro.storage.buildcache``):
    #: workers replay recorded ``cmake``/``make`` results instead of
    #: re-executing when the command's observed inputs are unchanged.
    #: Disable to reproduce the always-rebuild path.
    buildcache_enabled: bool = True
    #: Course every tenant in this deployment is metered under.
    course_name: str = "ece408"

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
