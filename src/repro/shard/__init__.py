"""Control-plane sharding: partitioned broker + routed docdb + schedulers.

One broker topic, one docdb collection, and one scheduler instance is the
single-instance ceiling the ROADMAP names: every submission funnels through
the same queue, every dequeue scans the same backlog, and a deadline storm
in one course stalls everyone (the RAI paper's ECE408 saturation).  This
package applies Ray's sharded-GCS shape to the submission control plane:

- :class:`~repro.shard.shardmap.ShardMap` — a stable, seeded hash
  partitioning of team keys into N partitions, shared by the message
  plane and the document store so a team's queue traffic and its
  submission records land on the *same* partition;
- :class:`~repro.shard.shardmap.Router` — publish-time routing (key →
  partition → ``tasks.pK`` topic) so no partition ever sees another's
  traffic;
- :class:`~repro.shard.steal.StealingConsumer` — a partition-pinned
  consumer that falls back to occupancy-driven work-stealing when its
  home queue runs dry, so a storm in one partition cannot idle the rest
  of the fleet;
- :class:`~repro.shard.plane.ShardedControlPlane` — the assembled
  runtime: per-partition channels, schedulers, metrics, steal counters,
  and the opt-in rebalancer loop.

Every :class:`~repro.core.system.RaiSystem` runs this plane; ``shards=1``
(the :class:`~repro.core.config.SystemConfig` default) is its
one-partition case.  The map names a lone partition with the paper's
unsharded names — topic ``rai``, route ``rai/tasks``, collection
``submissions`` — so a one-partition deployment's queue names, WAL
records and snapshots are the paper's.
"""

from repro.shard.plane import ShardedControlPlane
from repro.shard.shardmap import Router, ShardMap
from repro.shard.steal import StealingConsumer

__all__ = ["ShardMap", "Router", "ShardedControlPlane", "StealingConsumer"]
