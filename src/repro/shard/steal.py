"""Occupancy-driven work-stealing between partitions.

Each partition's executors consume from their home channel only — that is
what keeps routing, fair-share accounting, and warm-pool locality
per-partition.  The failure mode is a skewed deadline storm: one course's
partition backs up for an hour while the others sit idle.  Stealing fixes
the skew without giving up locality:

- **pull steal** (:class:`StealingConsumer`): when an executor's home
  queue is dry at claim time, it claims one message from the deepest
  sibling queue at or above the occupancy threshold.  The *victim's own
  scheduler* picks which message leaves (its fair-share/deadline policy
  still governs its queue), and the delivery is journaled against the
  victim's route, so crash recovery re-queues a stolen in-flight message
  on the partition that owns it.
- **rebalance** (:meth:`~repro.shard.plane.ShardedControlPlane.rebalance`,
  driven by the opt-in balancer loop): executors parked on a blocking
  ``get`` never cycle through ``try_get``, so a cold partition whose
  queue was empty *before* the storm began would otherwise sleep through
  it.  The balancer migrates queued messages from over-threshold queues
  to starving partitions (empty queue, parked or subscribed consumers),
  waking the sleepers.

Ack correctness: :class:`~repro.broker.topic.Channel` stamps each
delivered message with its source channel, and a stolen message must be
acked/re-queued *there* — acking the thief's home channel would leak the
victim's in-flight entry until the caretaker's stale sweep re-delivered
it, turning every steal into a duplicate execution.  The consumer below
routes all post-claim verbs through the message's delivering channel.
"""

from __future__ import annotations

from typing import Optional

from repro.broker.client import Consumer
from repro.broker.message import Message


class StealingConsumer(Consumer):
    """A partition-pinned consumer whose ``try_get`` can steal.

    Drop-in for :class:`~repro.broker.client.Consumer` in the worker's
    executor loop: ``get``/``cancel`` park on the home channel unchanged
    (blocking steals are the balancer's job), while ``try_get`` falls back
    to the control plane's steal policy and ``ack``/``ack_release``/
    ``requeue`` follow the message back to whichever channel delivered it.
    """

    def __init__(self, plane, partition: int):
        super().__init__(plane.broker, plane.shard_map.route(partition))
        self.plane = plane
        self.partition = partition

    def try_get(self) -> Optional[Message]:
        message = super().try_get()
        if message is not None:
            return message
        return self.plane.try_steal(self.partition)

    # -- post-claim verbs route via the delivering channel ------------------

    def _source_channel(self, message: Message):
        # ``is None``, not truthiness: a Channel whose queue is empty (the
        # victim's, right after its last message was stolen) is falsy.
        source = getattr(message, "_channel", None)
        return self._channel if source is None else source

    def ack(self, message: Message) -> None:
        self._source_channel(message).ack(message)

    def ack_release(self, message: Message) -> None:
        self._source_channel(message).ack_release(message)

    def requeue(self, message: Message) -> bool:
        return self._source_channel(message).requeue(message)
