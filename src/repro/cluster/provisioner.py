"""Turning cloud instances into RAI workers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.instance import InstanceType, get_instance_type
from repro.core.config import WorkerConfig

#: Guard against float drift on exact hour boundaries: a lease of
#: exactly 2h must bill 2 hours even if the subtraction lands on
#: 7200.0000000001 seconds.
_HOUR_EPSILON = 1e-9


@dataclass
class ProvisionedInstance:
    """One leased machine and the worker running on it."""

    instance_type: InstanceType
    launched_at: float
    worker: object = None           # RaiWorker once booted
    terminated_at: Optional[float] = None
    boot_process: object = None
    slots: int = 1                  # max_concurrent_jobs of its worker

    def cost_until(self, now: float) -> float:
        """Accrued cost; cloud billing is per (partial) hour.

        Billing starts at *launch*, not boot: an instance terminated
        ten seconds in — before its worker ever joined — still bills a
        full first hour, exactly as the cloud would charge it.  The two
        edge cases that round the other way: a zero-duration lease
        (terminated the same instant it launched) bills nothing, and an
        exact hour boundary bills that many hours, not one more.
        """
        end = self.terminated_at if self.terminated_at is not None else now
        seconds = max(0.0, end - self.launched_at)
        if seconds <= 0.0:
            return 0.0
        hours = seconds / 3600.0
        billed = max(1.0, math.ceil(hours - _HOUR_EPSILON))
        return billed * self.instance_type.hourly_cost_usd

    def overlap_seconds(self, start: float, end: float) -> float:
        """Seconds this lease was live inside ``[start, end)``."""
        lease_end = self.terminated_at if self.terminated_at is not None else end
        lo = max(start, self.launched_at)
        hi = min(end, lease_end)
        return max(0.0, hi - lo)

    @property
    def is_live(self) -> bool:
        return self.terminated_at is None


class Provisioner:
    """Launches and terminates instances against a :class:`RaiSystem`."""

    def __init__(self, system):
        self.system = system
        self.sim = system.sim
        self.instances: List[ProvisionedInstance] = []
        # The cost books price the fleet this provisioner leases.
        system.cost_allocator.attach_provisioner(self)

    # -- scale out ------------------------------------------------------------

    def launch(self, instance_type: str = "p2.xlarge",
               max_concurrent_jobs: int = 1,
               boot_delay: Optional[float] = None) -> ProvisionedInstance:
        """Lease an instance; its worker joins the pool after boot."""
        itype = get_instance_type(instance_type)
        inst = ProvisionedInstance(instance_type=itype,
                                   launched_at=self.sim.now,
                                   slots=max_concurrent_jobs)
        delay = itype.boot_seconds if boot_delay is None else boot_delay

        def boot():
            yield self.sim.timeout(delay)
            if inst.terminated_at is not None:
                return  # terminated while booting
            config = WorkerConfig(
                max_concurrent_jobs=max_concurrent_jobs,
                gpu_model=itype.gpu_model,
                storage_bandwidth_bps=itype.storage_bandwidth_bps,
            )
            inst.worker = self.system.add_worker(config)

        inst.boot_process = self.sim.process(boot())
        self.instances.append(inst)
        return inst

    def launch_many(self, count: int, **kwargs) -> List[ProvisionedInstance]:
        return [self.launch(**kwargs) for _ in range(count)]

    # -- scale in ------------------------------------------------------------

    def terminate(self, instance: ProvisionedInstance) -> None:
        if instance.terminated_at is not None:
            return
        instance.terminated_at = self.sim.now
        if instance.worker is not None:
            self.system.remove_worker(instance.worker)

    def terminate_count(self, count: int) -> int:
        """Terminate up to ``count`` live instances (idle-first)."""
        live = [i for i in self.instances if i.is_live and i.worker is not None]
        live.sort(key=lambda i: i.worker.active_jobs)
        terminated = 0
        for inst in live[:count]:
            self.terminate(inst)
            terminated += 1
        return terminated

    def terminate_all(self) -> None:
        for inst in self.instances:
            self.terminate(inst)

    # -- observability ------------------------------------------------------

    @property
    def live_instances(self) -> List[ProvisionedInstance]:
        return [i for i in self.instances if i.is_live]

    def total_cost(self, now: Optional[float] = None) -> float:
        now = self.sim.now if now is None else now
        return sum(i.cost_until(now) for i in self.instances)

    def capacity_slot_seconds(self, start: float, end: float) -> float:
        """Provisioned worker-slot capacity inside ``[start, end)``."""
        return sum(i.overlap_seconds(start, end) * i.slots
                   for i in self.instances)
