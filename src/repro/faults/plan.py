"""Declarative fault plans.

A :class:`FaultPlan` lists *what* should go wrong and *when*; the
:class:`~repro.faults.injector.FaultInjector` turns it into kernel
processes and hooks.  All randomness (crash instants, drop decisions,
delay draws) comes from named ``system.rng.stream("faults:...")`` streams,
so a chaos run is exactly as reproducible as a clean one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

ALWAYS: Tuple[float, float] = (0.0, math.inf)


def _check_window(window: Tuple[float, float], what: str) -> None:
    lo, hi = window
    if lo < 0 or hi < lo:
        raise ValueError(f"{what}: window must satisfy 0 <= start <= end, "
                         f"got {window}")


def _check_rate(rate: float, what: str) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{what}: rate must be in [0, 1], got {rate}")


@dataclass(frozen=True)
class WorkerCrashFault:
    """Kill (or gracefully stop) one worker at a random instant."""

    #: The crash instant is drawn uniformly from this window.
    window: Tuple[float, float] = (0.0, 60.0)
    #: Specific worker id to target; default picks a random *busy* worker
    #: (falling back to any running one) at the drawn instant.
    worker_id: Optional[str] = None
    #: ``"crash"`` (acks nothing; the caretaker must redeliver) or
    #: ``"stop"`` (graceful scale-in; the worker reports its own failure).
    mode: str = "crash"
    #: Seconds after the crash at which replacement capacity arrives
    #: (``system.add_worker()``); ``None`` = no replacement.
    restart_after: Optional[float] = None

    def __post_init__(self):
        _check_window(self.window, "WorkerCrashFault")
        if self.mode not in ("crash", "stop"):
            raise ValueError(f"mode must be 'crash' or 'stop', "
                             f"got {self.mode!r}")
        if math.isinf(self.window[1]):
            raise ValueError("WorkerCrashFault needs a finite window")


@dataclass(frozen=True)
class StorageFault:
    """Transient object-store failures (raised as TransientStorageError)."""

    #: Which operations fail: ``"get"``, ``"put"`` or ``"any"``.
    op: str = "get"
    #: Deterministic part: the first N calls for each (op, bucket, key)
    #: fail — the canonical retry-then-succeed shape.
    failures_per_key: int = 0
    #: Random part: additional per-call failure probability.
    rate: float = 0.0
    window: Tuple[float, float] = ALWAYS
    #: Restrict to one bucket; ``None`` = all buckets.
    bucket: Optional[str] = None

    def __post_init__(self):
        if self.op not in ("get", "put", "any"):
            raise ValueError(f"op must be 'get', 'put' or 'any', "
                             f"got {self.op!r}")
        if self.failures_per_key < 0:
            raise ValueError("failures_per_key must be >= 0")
        _check_rate(self.rate, "StorageFault")
        _check_window(self.window, "StorageFault")


@dataclass(frozen=True)
class BrokerFault:
    """Broker delivery mischief: delay or drop published messages."""

    #: Topic whose publishes are affected.  ``None`` (the default) means
    #: the deployment's task topics — every control-plane partition's,
    #: ``rai`` on one partition, ``tasks.p0`` … on several; a string
    #: names exactly one topic.
    topic: Optional[str] = None
    #: Per-publish probability of silently dropping the message.
    drop_rate: float = 0.0
    #: Per-publish probability of delaying delivery...
    delay_rate: float = 0.0
    #: ...by a uniform draw from this range of seconds.
    delay_range: Tuple[float, float] = (0.0, 0.0)
    window: Tuple[float, float] = ALWAYS

    def __post_init__(self):
        _check_rate(self.drop_rate, "BrokerFault")
        _check_rate(self.delay_rate, "BrokerFault")
        _check_window(self.window, "BrokerFault")
        lo, hi = self.delay_range
        if lo < 0 or hi < lo:
            raise ValueError(f"delay_range must satisfy 0 <= lo <= hi, "
                             f"got {self.delay_range}")


@dataclass(frozen=True)
class ContainerKillFault:
    """Kill a container mid-command (simulated docker daemon OOM-kill)."""

    #: Per-command probability of the container dying before the command.
    rate: float = 0.1
    window: Tuple[float, float] = ALWAYS

    def __post_init__(self):
        _check_rate(self.rate, "ContainerKillFault")
        _check_window(self.window, "ContainerKillFault")


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one chaos run."""

    worker_crashes: Tuple[WorkerCrashFault, ...] = ()
    storage_faults: Tuple[StorageFault, ...] = ()
    broker_faults: Tuple[BrokerFault, ...] = ()
    container_kills: Tuple[ContainerKillFault, ...] = ()

    def __post_init__(self):
        # Accept lists for convenience; store tuples (hashable, immutable).
        for name in ("worker_crashes", "storage_faults", "broker_faults",
                     "container_kills"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def is_empty(self) -> bool:
        return not (self.worker_crashes or self.storage_faults
                    or self.broker_faults or self.container_kills)

    def describe(self) -> str:
        parts = []
        if self.worker_crashes:
            parts.append(f"{len(self.worker_crashes)} worker crash(es)")
        if self.storage_faults:
            parts.append(f"{len(self.storage_faults)} storage fault(s)")
        if self.broker_faults:
            parts.append(f"{len(self.broker_faults)} broker fault(s)")
        if self.container_kills:
            parts.append(f"{len(self.container_kills)} container kill(s)")
        return "FaultPlan(" + (", ".join(parts) or "empty") + ")"
