"""Work-conserving stealing between partitions.

Each partition's executors consume from their home channel first — that
is what keeps routing, fair-share accounting, and warm-pool locality
per-partition.  The failure mode is a skewed deadline storm (one
partition backs up while the others sit idle), and at its extreme a job
routed to a partition no executor is homed on.  One path covers both,
the way Ray's bottom-up scheduler spills to an idle node:

- **steal** (:class:`StealingConsumer`): when an executor's home queue is
  dry at claim time, it claims one message from the deepest sibling
  queue holding any.  The *victim's own scheduler* picks which message
  leaves (its fair-share/deadline policy still governs its queue), and
  the delivery is journaled against the victim's route, so crash
  recovery re-queues a stolen in-flight message on the partition that
  owns it.
- **wake**: an executor parked on its home channel's blocking ``get``
  never cycles through ``try_get``.  So when a put leaves a message
  queued on a partition with no get parked on it, the plane resolves
  one get parked on a sibling with ``None``, and that executor loops
  back to ``try_get`` and steals.  No message stays queued while any
  executor is parked.

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
    executor loop, with one contract change: ``get`` parks on the home
    channel and fires with a message, or with ``None``, meaning "work is
    queued on a sibling" — call ``try_get`` again.  ``try_get`` falls back
    to the control plane's steal, and ``ack``/``ack_release``/``requeue``
    follow the message back to whichever channel delivered it.
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
