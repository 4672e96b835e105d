"""The assembled control plane: every deployment runs one.

One :class:`ShardedControlPlane` owns everything partition-scoped: the
per-partition broker channels, the N independent scheduler instances, the
one work-conserving steal path and its counters, and the per-partition
observability surface (``shard``-labelled gauges, ``shard.steal``
events).  ``shards=1`` is the one-partition plane — the paper's single
``rai`` topic, ``rai/tasks`` queue and scheduler — not a different
design; with no sibling there is nothing to wake or steal.  Its
constructor takes plain collaborators (a broker, a shard map, a
scheduler factory), not :class:`~repro.core.system.RaiSystem`, so a test
can drive the plane over a bare broker.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.broker.message import Message
from repro.obs.events import EventType
from repro.shard.shardmap import Router, ShardMap
from repro.shard.steal import StealingConsumer


class ShardedControlPlane:
    """N partitions of queue + scheduler + warm pools, with stealing.

    ``scheduler_factory(partition)`` builds one scheduler per partition;
    each is attached to that partition's channel, so fair-share/deadline
    policy applies *within* a partition — Ray's "no central state on the
    hot path" shape.  ``workers_fn`` supplies the live worker list for
    occupancy and pool-hit reporting; a bare harness leaves it None and
    loses only those figures.
    """

    def __init__(self, broker, shard_map: ShardMap, *,
                 scheduler_factory: Callable[[int], object],
                 events=None,
                 workers_fn: Optional[Callable[[], list]] = None):
        self.broker = broker
        self.shard_map = shard_map
        self.router = Router(shard_map)
        self.events = events
        self.workers_fn = workers_fn

        n = shard_map.n_partitions
        #: Steals by thief partition / losses by victim partition.
        self.steals_in: List[int] = [0] * n
        self.steals_out: List[int] = [0] * n
        self._next_worker_partition = 0

        self.channels = []
        self.schedulers: List[object] = []
        for partition in shard_map.partitions():
            channel = broker.channel(shard_map.route(partition))
            scheduler = scheduler_factory(partition)
            channel.set_scheduler(scheduler)
            channel.on_queued = self._wake_sibling
            self.channels.append(channel)
            self.schedulers.append(scheduler)

    # -- routing ------------------------------------------------------------

    def route(self, key):
        """Route a fair-share ``key``; returns ``(partition, topic)``."""
        return self.router.route(key)

    def consumer(self, partition: int) -> StealingConsumer:
        """A stealing consumer homed on ``partition``'s channel."""
        return StealingConsumer(self, partition)

    def assign_partition(self) -> int:
        """Round-robin home partition for the next executor/worker."""
        partition = self._next_worker_partition % self.shard_map.n_partitions
        self._next_worker_partition += 1
        return partition

    # -- stealing -----------------------------------------------------------

    def _wake_sibling(self, channel) -> None:
        """A put left a message queued on ``channel`` and no executor is
        parked there: resolve one get parked on a sibling with None.

        The woken executor loops back to ``try_get``, whose home queue is
        empty, so it steals — Ray's spill to an idle node.  ``channel``
        itself has no parked get, so scanning every channel is safe; gets
        already resolved (cancelled) are dropped on the way.
        """
        for sibling in self.channels:
            gets = sibling._gets
            while gets:
                get = gets.popleft()
                if not get.triggered:
                    get.succeed(None)
                    return

    def try_steal(self, thief: int) -> Optional[Message]:
        """Claim one message from the deepest sibling holding any.

        The victim channel's own ``try_deliver`` does the claim, so its
        scheduler still picks which message leaves and the delivery is
        journaled/in-flight-tracked against the victim's route.
        """
        victim, depth = -1, 0
        for partition, channel in enumerate(self.channels):
            if partition != thief and channel.depth > depth:
                victim, depth = partition, channel.depth
        if victim < 0:
            return None
        message = self.channels[victim].try_deliver()
        if message is None:
            return None
        self.steals_in[thief] += 1
        self.steals_out[victim] += 1
        if self.events is not None:
            body = message.body if isinstance(message.body, dict) else {}
            self.events.emit(EventType.SHARD_STEAL, mode="pull",
                             victim=victim, thief=thief,
                             job_id=body.get("job_id"),
                             team=body.get("team"),
                             victim_depth=depth)
        return message

    # -- scheduler plurality ------------------------------------------------

    def scheduler_for(self, key):
        return self.schedulers[self.shard_map.partition(key)]

    def note_completion(self, key, service_seconds: float) -> None:
        """Feed a completed job's service time to its partition's scheduler
        (a job with no fair-share key feeds none)."""
        if key:
            self.scheduler_for(key).note_completion(key, service_seconds)

    def max_wait_ewma(self) -> float:
        """Worst per-partition queue-wait EWMA (the autoscaler signal)."""
        return max(s.wait_ewma() for s in self.schedulers)

    # -- observability ------------------------------------------------------

    def _partition_workers(self, partition: int) -> list:
        if self.workers_fn is None:
            return []
        return [w for w in self.workers_fn() if w.partition == partition]

    def occupancy(self, partition: int) -> float:
        """Busy fraction of the partition's live executor slots."""
        workers = self._partition_workers(partition)
        slots = sum(w.slot_count for w in workers)
        if not slots:
            return 0.0
        return sum(w.active_jobs for w in workers) / slots

    def pool_hit_rate(self, partition: int) -> float:
        """Warm-pool hit fraction across the partition's workers."""
        workers = self._partition_workers(partition)
        acquires = hits = 0
        for worker in workers:
            pool = worker.pool
            acquires += pool.hits + pool.misses
            hits += pool.hits
        return hits / acquires if acquires else 0.0

    def queue_depth(self) -> int:
        """Total queued tasks across every partition."""
        return sum(channel.topic.depth for channel in self.channels)

    def wait_stats(self) -> dict:
        return {f"p{p}": s.wait_stats()
                for p, s in enumerate(self.schedulers)}

    def stats(self) -> dict:
        partitions = []
        for p, channel in enumerate(self.channels):
            partitions.append({
                "partition": p,
                "topic": self.shard_map.topic(p),
                "routed": self.router.routed[p],
                "queue_depth": channel.depth,
                "in_flight": len(channel.in_flight),
                "dispatched": channel.total_delivered,
                "steals_in": self.steals_in[p],
                "steals_out": self.steals_out[p],
                # Always 0: the frozen bench/harness.py:299 still adds it
                # to steals_in.  Delete with that reader.
                "rebalanced_in": 0,
                "workers": len(self._partition_workers(p)),
                "occupancy": self.occupancy(p),
                "pool_hit_rate": self.pool_hit_rate(p),
                "wait_ewma": self.schedulers[p].wait_ewma(),
            })
        return {
            "shard_map": self.shard_map.to_dict(),
            "partitions": partitions,
        }
