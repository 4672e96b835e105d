"""Turn a :class:`~repro.faults.plan.FaultPlan` into live chaos.

The injector installs hooks on a running :class:`~repro.core.system.RaiSystem`
and spawns kernel processes; every random decision draws from a named
deterministic stream, so two runs with the same system seed and plan
produce byte-identical timelines.

Usage::

    injector = system.start_fault_plan(plan)   # or FaultInjector(...).start()
    ...
    injector.stop()                            # restore all hooks
"""

from __future__ import annotations

from typing import List, Optional

from repro.container.container import ExecResult
from repro.errors import TransientStorageError
from repro.faults.plan import FaultPlan
from repro.obs.events import EventType


class FaultInjector:
    """Applies a fault plan to one system; reversible via :meth:`stop`."""

    def __init__(self, system, plan: FaultPlan):
        self.system = system
        self.sim = system.sim
        self.plan = plan
        self._storage_rng = system.rng.stream("faults:storage")
        self._broker_rng = system.rng.stream("faults:broker")
        self._container_rng = system.rng.stream("faults:container")
        self._storage_counts: dict = {}
        self._procs: List = []
        self._started = False
        self._stopped = False
        self._orig_publish = None
        self._orig_add_worker = None
        #: What ``BrokerFault(topic=None)`` matches: every partition's
        #: task topic.
        shard_map = system.shards.shard_map
        self._task_topics = frozenset(
            shard_map.topic(p) for p in shard_map.partitions())

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "FaultInjector":
        if self._started:
            raise RuntimeError("fault injector already started")
        self._started = True
        if self.plan.storage_faults:
            self.system.storage.fault_hook = self._storage_hook
        if self.plan.broker_faults:
            self._orig_publish = self.system.broker.publish
            self.system.broker.publish = self._publish_with_faults
        if self.plan.container_kills:
            for worker in self.system.workers:
                self._wrap_runtime(worker.runtime)
            # Workers added later (e.g. restart_after replacements) get
            # wrapped runtimes too.
            self._orig_add_worker = self.system.add_worker
            self.system.add_worker = self._add_worker_with_faults
        for index, fault in enumerate(self.plan.worker_crashes):
            rng = self.system.rng.stream(f"faults:crash:{index}")
            self._procs.append(
                self.sim.process(self._crash_process(fault, rng)))
        return self

    def stop(self) -> None:
        """Stop injecting and restore every hook."""
        if self._stopped:
            return
        self._stopped = True
        if self.system.storage.fault_hook == self._storage_hook:
            self.system.storage.fault_hook = None
        if self._orig_publish is not None:
            self.system.broker.publish = self._orig_publish
        if self._orig_add_worker is not None:
            self.system.add_worker = self._orig_add_worker
        # Wrapped runtimes / pending crash processes all check _stopped.

    def __enter__(self) -> "FaultInjector":
        return self.start() if not self._started else self

    def __exit__(self, *exc):
        self.stop()
        return False

    # -- bookkeeping ----------------------------------------------------------

    def _fire(self, kind: str, **fields) -> None:
        self.system.monitor.incr("faults_injected")
        self.system.events.emit(EventType.FAULT_INJECTED, kind=kind, **fields)

    @staticmethod
    def _in_window(window, now: float) -> bool:
        return window[0] <= now <= window[1]

    # -- worker crashes ----------------------------------------------------------

    def _crash_process(self, fault, rng):
        instant = float(rng.uniform(fault.window[0], fault.window[1]))
        delay = max(0.0, instant - self.sim.now)
        if delay > 0:
            yield self.sim.timeout(delay)
        if self._stopped:
            return
        victim = self._pick_victim(fault, rng)
        if victim is None:
            return
        self._fire(f"worker_{fault.mode}", worker=victim.id, at=self.sim.now)
        if fault.mode == "stop":
            victim.stop()
        else:
            victim.crash()
        if fault.restart_after is not None:
            yield self.sim.timeout(fault.restart_after)
            if not self._stopped:
                replacement = self.system.add_worker()
                self.system.events.emit(EventType.FAULT_REPLACEMENT_WORKER,
                                        worker=replacement.id)

    def _pick_victim(self, fault, rng) -> Optional[object]:
        running = self.system.running_workers
        if fault.worker_id is not None:
            for worker in running:
                if worker.id == fault.worker_id:
                    return worker
            return None
        # Prefer a worker with a job in flight — crashing an idle worker
        # exercises nothing interesting.
        busy = [w for w in running if w.active_jobs > 0]
        pool = busy or running
        if not pool:
            return None
        return pool[int(rng.integers(0, len(pool)))]

    # -- storage faults ----------------------------------------------------------

    def _storage_hook(self, op: str, bucket: str, key: str) -> None:
        if self._stopped:
            return
        now = self.sim.now
        for index, fault in enumerate(self.plan.storage_faults):
            if fault.op not in (op, "any"):
                continue
            if not self._in_window(fault.window, now):
                continue
            if fault.bucket is not None and fault.bucket != bucket:
                continue
            counts_key = (index, op, bucket, key)
            used = self._storage_counts.get(counts_key, 0)
            if used < fault.failures_per_key:
                self._storage_counts[counts_key] = used + 1
                self._fire(f"storage_{op}", bucket=bucket, key=key,
                           nth_failure=used + 1)
                raise TransientStorageError(
                    f"injected transient {op} failure on {bucket}/{key} "
                    f"({used + 1}/{fault.failures_per_key})")
            if fault.rate > 0 and \
                    float(self._storage_rng.random()) < fault.rate:
                self._fire(f"storage_{op}", bucket=bucket, key=key,
                           random=True)
                raise TransientStorageError(
                    f"injected transient {op} failure on {bucket}/{key}")

    # -- broker faults ----------------------------------------------------------

    def _publish_with_faults(self, topic_name: str, body, headers=None):
        if not self._stopped:
            now = self.sim.now
            for fault in self.plan.broker_faults:
                if topic_name not in (self._task_topics if fault.topic is None
                                      else (fault.topic,)):
                    continue
                if not self._in_window(fault.window, now):
                    continue
                if fault.drop_rate > 0 and \
                        float(self._broker_rng.random()) < fault.drop_rate:
                    self._fire("broker_drop", topic=topic_name)
                    return None
                if fault.delay_rate > 0 and \
                        float(self._broker_rng.random()) < fault.delay_rate:
                    delay = float(self._broker_rng.uniform(
                        fault.delay_range[0], fault.delay_range[1]))
                    self._fire("broker_delay", topic=topic_name,
                               seconds=delay)
                    self.sim.process(self._delayed_publish(
                        topic_name, body, delay, headers))
                    return None
        return self._orig_publish(topic_name, body, headers=headers)

    def _delayed_publish(self, topic_name: str, body, delay: float,
                         headers=None):
        yield self.sim.timeout(delay)
        if not self._stopped:
            self._orig_publish(topic_name, body, headers=headers)

    # -- container kills ----------------------------------------------------------

    def _add_worker_with_faults(self, config=None):
        worker = self._orig_add_worker(config)
        self._wrap_runtime(worker.runtime)
        return worker

    def _wrap_runtime(self, runtime) -> None:
        orig_create = runtime.create_container

        def create_container(*args, **kwargs):
            container = orig_create(*args, **kwargs)
            if not self._stopped:
                self._arm_container(container)
            return container

        runtime.create_container = create_container

    def _arm_container(self, container) -> None:
        orig_exec = container.exec_line

        def exec_line(line: str):
            if not self._stopped:
                now = self.sim.now
                for fault in self.plan.container_kills:
                    if not self._in_window(fault.window, now):
                        continue
                    if float(self._container_rng.random()) < fault.rate:
                        self._fire("container_kill",
                                   container=container.id, command=line)
                        container.stop()
                        return ExecResult(
                            command=line, exit_code=137, sim_duration=0.0,
                            stdout="", stderr="",
                            error="container killed by fault injection "
                                  "(simulated daemon kill)")
            return orig_exec(line)

        container.exec_line = exec_line
