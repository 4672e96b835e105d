"""Scaling policies: the course's manual schedule, and a reactive
queue-depth autoscaler ("RAI can also be configured to scale out to remote
cloud instances as local resources [are] exhausted", §IV)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.provisioner import Provisioner
from repro.obs.events import EventType


@dataclass(frozen=True)
class SchedulePhase:
    """One phase of a manual provisioning plan."""

    start_time: float              # seconds from schedule start
    instance_type: str
    count: int
    max_concurrent_jobs: int = 1
    label: str = ""


class ManualSchedule:
    """The course's hand-driven plan (§VII, Resource Usage):

    1. early weeks — a few cheap G2 (K40) boxes, one job at a time, while
       students experiment with the slow CPU baseline;
    2. mid-project — 10 P2 (K80) instances, multiple pending submissions
       each, for interactive response;
    3. final week — 20–30 single-job P2 instances for accurate timing.
    """

    @staticmethod
    def course_default(final_week_count: int = 25) -> List[SchedulePhase]:
        day = 24 * 3600.0
        return [
            SchedulePhase(0.0, "g2.2xlarge", 4, max_concurrent_jobs=1,
                          label="baseline experimentation (G2/K40)"),
            SchedulePhase(14 * day, "p2.xlarge", 10, max_concurrent_jobs=4,
                          label="development (P2/K80, multi-job)"),
            SchedulePhase(28 * day, "p2.xlarge", final_week_count,
                          max_concurrent_jobs=1,
                          label="benchmarking week (P2/K80, single-job)"),
        ]

    def __init__(self, provisioner: Provisioner,
                 phases: Optional[List[SchedulePhase]] = None):
        self.provisioner = provisioner
        self.sim = provisioner.sim
        self.phases = sorted(phases or self.course_default(),
                             key=lambda p: p.start_time)
        self.applied: List[SchedulePhase] = []

    def run(self):
        """Kernel process applying each phase at its start time."""
        origin = self.sim.now
        for phase in self.phases:
            wait = origin + phase.start_time - self.sim.now
            if wait > 0:
                yield self.sim.timeout(wait)
            self._apply(phase)

    def _apply(self, phase: SchedulePhase) -> None:
        # Replace the current fleet with the phase's fleet.
        self.provisioner.terminate_all()
        self.provisioner.launch_many(
            phase.count, instance_type=phase.instance_type,
            max_concurrent_jobs=phase.max_concurrent_jobs)
        self.applied.append(phase)


@dataclass
class AutoscalerPolicy:
    """Reactive scaling knobs."""

    min_instances: int = 1
    max_instances: int = 30
    #: Scale in when the whole queue is below this and utilisation is low.
    scale_in_queue_depth: int = 0
    scale_in_idle_fraction: float = 0.5
    check_interval: float = 60.0
    instance_type: str = "p2.xlarge"
    max_concurrent_jobs: int = 1
    #: Instances added per scale-out decision.
    step: int = 2
    #: Minimum seconds between scale-in actions (billing hysteresis).
    scale_in_cooldown: float = 1800.0
    #: Scale out when live-slot occupancy reaches this fraction with work
    #: still queued (raw depth lies when jobs are long; busy slots don't).
    scale_out_utilization: float = 0.85
    #: Scale out while the scheduler's queue-wait EWMA exceeds this many
    #: seconds; scale-in additionally requires the EWMA to have cooled
    #: below half of it (hysteresis).
    target_wait_seconds: float = 60.0


class Autoscaler:
    """Periodically sizes the fleet to slot utilisation + queue-wait EWMA.

    Each tick gathers a :meth:`signals` snapshot, feeds it to the pure
    decision function :meth:`_decide`, and applies the result.  Crashed
    workers (fault injection, spot reclaim) are reaped first so their
    instances stop counting toward the floor and billing.
    """

    def __init__(self, system, provisioner: Provisioner,
                 policy: Optional[AutoscalerPolicy] = None):
        self.policy = policy or AutoscalerPolicy()
        if self.policy.check_interval <= 0:
            raise ValueError("interval must be positive")
        self.system = system
        self.provisioner = provisioner
        self.sim = system.sim
        self.decisions: List[dict] = []
        self._last_scale_in = -float("inf")

    def run(self):
        """Kernel process: evaluate the policy every ``check_interval``."""
        while True:
            self._reap_crashed()
            signals = self.signals()
            decision = self._decide(signals)
            if decision is not None:
                self._apply(decision, signals)
            yield self.sim.timeout(self.policy.check_interval)

    # -- signal gathering ---------------------------------------------------

    def signals(self) -> dict:
        """One snapshot of everything :meth:`_decide` looks at."""
        live = self.provisioner.live_instances
        workers = [i.worker for i in live if i.worker is not None]
        healthy = [w for w in workers if w.is_running]
        active = sum(w.active_jobs for w in healthy)
        capacity = sum(w.slot_count for w in healthy)
        return {
            "now": self.sim.now,
            "n_live": len(live),
            "n_healthy": len(healthy),
            "depth": self.system.queue_depth(),
            "active": active,
            "capacity": capacity,
            "occupancy": active / capacity if capacity else 0.0,
            "wait_ewma": self.system.shards.max_wait_ewma(),
            "since_scale_in": self.sim.now - self._last_scale_in,
        }

    def _reap_crashed(self) -> int:
        """Terminate instances whose worker died outside the provisioner.

        A fault-injected crash stops the worker but leaves the instance
        "live" (and billing); reaping it lets the min-floor rule replace
        the lost capacity on the same tick.
        """
        reaped = 0
        for inst in self.provisioner.live_instances:
            worker = inst.worker
            if worker is not None and not worker.is_running:
                self.provisioner.terminate(inst)
                reaped += 1
        if reaped:
            self._record_decision("reap-crashed", reaped, self.signals())
        return reaped

    # -- the decision function ----------------------------------------------

    def _decide(self, signals: dict) -> Optional[tuple]:
        """Pure policy: signals snapshot → ``(action, count)`` or None.

        Rules, first match wins:

        1. **min floor** — below ``min_instances`` live instances
           (booting ones count; reaped ones no longer do): launch the
           deficit.
        2. **scale out** (capped at ``max_instances``, work queued):
           cold start (zero usable slots anywhere), occupancy at/over
           ``scale_out_utilization``, or queue-wait EWMA over
           ``target_wait_seconds``.
        3. **scale in** — queue at/below ``scale_in_queue_depth``,
           occupancy at/below ``1 - scale_in_idle_fraction``, wait EWMA
           cooled below half the target, and the cooldown elapsed.
        """
        policy = self.policy
        n_live = signals["n_live"]
        depth = signals["depth"]
        if n_live < policy.min_instances:
            return ("ensure-min", policy.min_instances - n_live)
        if n_live < policy.max_instances and depth > 0:
            room = policy.max_instances - n_live
            if signals["capacity"] == 0 \
                    or signals["occupancy"] >= policy.scale_out_utilization \
                    or signals["wait_ewma"] > policy.target_wait_seconds:
                return ("scale-out", min(policy.step, room))
        if (n_live > policy.min_instances
                and depth <= policy.scale_in_queue_depth
                and signals["capacity"] > 0
                and signals["occupancy"] <= 1 - policy.scale_in_idle_fraction
                and signals["wait_ewma"] < policy.target_wait_seconds / 2
                and signals["since_scale_in"] >= policy.scale_in_cooldown):
            return ("scale-in",
                    min(policy.step, n_live - policy.min_instances))
        return None

    def _apply(self, decision: tuple, signals: dict) -> None:
        action, count = decision
        if action in ("ensure-min", "scale-out"):
            self.provisioner.launch_many(
                count, instance_type=self.policy.instance_type,
                max_concurrent_jobs=self.policy.max_concurrent_jobs)
            self._record_decision(action, count, signals)
        elif action == "scale-in":
            removed = self.provisioner.terminate_count(count)
            if removed:
                self._last_scale_in = self.sim.now
                self._record_decision(action, removed, signals)

    def _record_decision(self, action: str, count: int,
                         signals: dict) -> None:
        self.decisions.append({
            "t": self.sim.now,
            "action": action,
            "count": count,
            "queue_depth": signals["depth"],
            "live_before": signals["n_live"],
            "occupancy": signals["occupancy"],
            "wait_ewma": signals["wait_ewma"],
        })
        self.system.events.emit(
            EventType.AUTOSCALE_DECISION, action=action, count=count,
            queue_depth=signals["depth"], live_before=signals["n_live"],
            occupancy=round(signals["occupancy"], 4),
            wait_ewma=round(signals["wait_ewma"], 4))
