"""The assembled control plane: every deployment runs one.

One :class:`ShardedControlPlane` owns everything partition-scoped: the
per-partition broker channels, the N independent scheduler instances, the
steal policy and its counters, and the per-partition observability
surface (``shard``-labelled gauges, ``shard.steal`` events).  ``shards=1``
is the one-partition plane — the paper's single ``rai`` topic,
``rai/tasks`` queue and scheduler — not a different design.  It is
deliberately decoupled from :class:`~repro.core.system.RaiSystem` — the
shard bench drives the same plane over a bare broker at kernel scale —
so its constructor takes plain collaborators, not the system object.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.broker.message import Message
from repro.obs.events import EventType
from repro.shard.shardmap import Router, ShardMap
from repro.shard.steal import StealingConsumer


class ShardedControlPlane:
    """N partitions of queue + scheduler + warm pools, with stealing.

    ``scheduler_factory(partition)`` builds one scheduler per partition
    (or returns None); each is attached to that partition's channel, so
    fair-share/deadline policy applies *within* a partition — Ray's
    "no central state on the hot path" shape.  ``workers_fn`` supplies
    the live worker list for occupancy and pool-hit reporting; bare
    harnesses (the bench) leave it None and lose only those gauges.
    """

    def __init__(self, broker, shard_map: ShardMap, *,
                 metrics=None, events=None,
                 steal_threshold: int = 2,
                 scheduler_factory: Optional[Callable[[int], object]] = None,
                 workers_fn: Optional[Callable[[], list]] = None):
        if steal_threshold < 1:
            raise ValueError("steal_threshold must be >= 1")
        self.broker = broker
        self.shard_map = shard_map
        self.router = Router(shard_map)
        self.metrics = metrics
        self.events = events
        self.steal_threshold = steal_threshold
        self.workers_fn = workers_fn

        n = shard_map.n_partitions
        #: Pull-steals by thief partition / losses by victim partition.
        self.steals_in: List[int] = [0] * n
        self.steals_out: List[int] = [0] * n
        #: Messages migrated into each partition by the balancer.
        self.rebalanced_in: List[int] = [0] * n
        self._next_worker_partition = 0

        self.channels = []
        self.schedulers: List[Optional[object]] = []
        for partition in shard_map.partitions():
            channel = broker.channel(shard_map.route(partition))
            scheduler = scheduler_factory(partition) \
                if scheduler_factory is not None else None
            if scheduler is not None:
                channel.scheduler = scheduler
            self.channels.append(channel)
            self.schedulers.append(scheduler)
            if metrics is not None:
                self._register_gauges(partition, channel)

    def _register_gauges(self, partition: int, channel) -> None:
        label = f"p{partition}"
        self.metrics.gauge("shard_queue_depth", shard=label,
                           fn=lambda c=channel: float(c.depth))
        self.metrics.gauge("shard_dispatched", shard=label,
                           fn=lambda c=channel: float(c.total_delivered))
        self.metrics.gauge("shard_routed", shard=label,
                           fn=lambda p=partition:
                           float(self.router.routed[p]))
        self.metrics.gauge("shard_steals", shard=label,
                           fn=lambda p=partition:
                           float(self.steals_in[p] + self.rebalanced_in[p]))
        self.metrics.gauge("shard_pool_hit_rate", shard=label,
                           fn=lambda p=partition: self.pool_hit_rate(p))
        self.metrics.gauge("shard_occupancy", shard=label,
                           fn=lambda p=partition: self.occupancy(p))

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

    def try_steal(self, thief: int) -> Optional[Message]:
        """Claim one message from the deepest over-threshold sibling.

        The victim channel's own ``try_deliver`` does the claim, so its
        scheduler still picks which message leaves and the delivery is
        journaled/in-flight-tracked against the victim's route.
        """
        victim, depth = -1, self.steal_threshold - 1
        for partition, channel in enumerate(self.channels):
            if partition != thief and channel.ready_count > depth:
                victim, depth = partition, channel.ready_count
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
                             job_id=body.get("job_id") or body.get("j"),
                             team=body.get("team"),
                             victim_depth=depth)
        return message

    def rebalance(self) -> int:
        """One balancer sweep: migrate queued work to starving partitions.

        A partition is *starving* when its queue is empty but consumers
        are parked on (or subscribed to) it — executors asleep on a
        blocking ``get`` never reach the pull-steal path, so an uneven
        storm that arrives after they park would otherwise idle them.
        Messages move from the deepest non-empty queue via the normal
        put path (waking parked gets), journaled as ``mb_steal`` so
        recovery replays the migration before re-queueing in-flight.

        Unlike the pull-steal path, the balancer ignores the occupancy
        threshold: the threshold is a locality heuristic for executors
        that are *cycling* (home work will arrive; do not chase
        one-message blips), but a starving partition's executor is idle
        — leaving any queued message anywhere else violates work
        conservation.  A deployment with fewer executors than
        partitions relies on exactly this: a job routed to an unmanned
        partition must migrate even when it is the only one queued.
        """
        moved = 0
        for thief, channel in enumerate(self.channels):
            if channel.depth:
                continue
            wanted = len(channel._gets) or \
                (1 if channel.subscriber_count else 0)
            for _ in range(wanted):
                victim = self._deepest_victim(thief)
                if victim < 0:
                    break
                moved += self._migrate(victim, thief)
        return moved

    def _deepest_victim(self, thief: int) -> int:
        victim, depth = -1, 0
        for partition, channel in enumerate(self.channels):
            if partition != thief and channel.depth > depth:
                victim, depth = partition, channel.depth
        return victim

    def _migrate(self, victim: int, thief: int) -> int:
        source, target = self.channels[victim], self.channels[thief]
        if not source.items:
            return 0
        # Steal from the queue tail: the head is what the victim's own
        # scheduler is about to dispatch, the tail is the newest backlog.
        message = source.items.pop()
        journal = self.broker.journal
        if journal is not None:
            journal.broker_steal(source.route, target.route, message.id)
        self.rebalanced_in[thief] += 1
        self.steals_out[victim] += 1
        if self.events is not None:
            body = message.body if isinstance(message.body, dict) else {}
            self.events.emit(EventType.SHARD_STEAL, mode="rebalance",
                             victim=victim, thief=thief,
                             job_id=body.get("job_id") or body.get("j"),
                             team=body.get("team"))
        target._put_fast(message)
        return 1

    # -- scheduler plurality ------------------------------------------------

    def scheduler_for(self, key):
        return self.schedulers[self.shard_map.partition(key)]

    def note_completion(self, key, service_seconds: float) -> None:
        """Feed a completed job's service time to its partition's scheduler
        (a job with no fair-share key feeds none)."""
        if not key:
            return
        scheduler = self.scheduler_for(key)
        if scheduler is not None:
            scheduler.note_completion(key, service_seconds)

    def max_wait_ewma(self) -> float:
        """Worst per-partition queue-wait EWMA (the autoscaler signal)."""
        return max((s.wait_ewma() for s in self.schedulers
                    if s is not None), default=0.0)

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
                for p, s in enumerate(self.schedulers) if s is not None}

    def stats(self) -> dict:
        partitions = []
        for p, channel in enumerate(self.channels):
            scheduler = self.schedulers[p]
            partitions.append({
                "partition": p,
                "topic": self.shard_map.topic(p),
                "routed": self.router.routed[p],
                "queue_depth": channel.depth,
                "in_flight": len(channel.in_flight),
                "dispatched": channel.total_delivered,
                "steals_in": self.steals_in[p],
                "steals_out": self.steals_out[p],
                "rebalanced_in": self.rebalanced_in[p],
                "workers": len(self._partition_workers(p)),
                "occupancy": self.occupancy(p),
                "pool_hit_rate": self.pool_hit_rate(p),
                "wait_ewma": scheduler.wait_ewma()
                if scheduler is not None else None,
            })
        return {
            "shard_map": self.shard_map.to_dict(),
            "steal_threshold": self.steal_threshold,
            "partitions": partitions,
        }
