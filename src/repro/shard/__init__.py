"""Control-plane sharding: partitioned task topics + schedulers.

One broker topic and one scheduler instance is the single-instance
ceiling the ROADMAP names: every submission funnels through the same
queue, every dequeue scans the same backlog, and a deadline storm in one
course stalls everyone (the RAI paper's ECE408 saturation).  This
package partitions what shapes time — the task topics, the schedulers
and stealing between them; ``submissions`` stays one docdb collection,
whose operations take no sim time:

- :class:`~repro.shard.shardmap.ShardMap` — a stable, seeded hash
  partitioning of team keys into N partitions;
- :class:`~repro.shard.shardmap.Router` — publish-time routing (key →
  partition → ``tasks.pK`` topic) so no partition ever sees another's
  traffic;
- :class:`~repro.shard.steal.StealingConsumer` — a partition-pinned
  consumer that steals from the deepest sibling when its home queue runs
  dry, and is woken from its parked ``get`` when a sibling queues work
  no one is parked on, so no message waits while an executor idles;
- :class:`~repro.shard.plane.ShardedControlPlane` — the assembled
  runtime: per-partition channels, schedulers, metrics, the wake hook
  and the steal counters.

Every :class:`~repro.core.system.RaiSystem` runs this plane; ``shards=1``
(the :class:`~repro.core.config.SystemConfig` default) is its
one-partition case.  The map names a lone partition with the paper's
unsharded names — topic ``rai``, route ``rai/tasks`` — so a
one-partition deployment's queue names, WAL records and snapshots are
the paper's.
"""

from repro.shard.plane import ShardedControlPlane
from repro.shard.shardmap import Router, ShardMap
from repro.shard.steal import StealingConsumer

__all__ = ["ShardMap", "Router", "ShardedControlPlane", "StealingConsumer"]
