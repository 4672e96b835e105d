"""Producer / consumer handles over the broker.

These are the objects RAI clients and workers hold.  A :class:`Consumer`
registers itself on a channel (keeping ephemeral topics alive) and exposes
``get`` / ``ack`` / ``requeue``; a :class:`Producer` pins a topic so the
broker's garbage collector will not reap it mid-stream.
"""

from __future__ import annotations

from typing import Optional

from repro.broker.broker import MessageBroker
from repro.broker.message import Message
from repro.broker.routes import parse_route


class Producer:
    """A publishing handle that pins its topic while open."""

    def __init__(self, broker: MessageBroker, topic_name: str):
        self.broker = broker
        self.topic_name = topic_name
        self._topic = broker.topic(topic_name)
        self._topic.producer_count += 1
        self._closed = False

    def publish(self, body, headers=None) -> Message:
        if self._closed:
            raise RuntimeError("producer is closed")
        return self.broker.publish(self.topic_name, body, headers=headers)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._topic.producer_count -= 1
            self._topic._maybe_reap()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class Consumer:
    """A subscribing handle over one ``topic/channel`` route."""

    def __init__(self, broker: MessageBroker, route: str):
        self.broker = broker
        self.route = parse_route(route)
        self._channel = broker.channel(route)
        self._channel.subscriber_count += 1
        self._closed = False

    def get(self):
        """Event that fires with the next message for this consumer.

        Usage inside a process: ``msg = yield consumer.get()``.
        """
        if self._closed:
            raise RuntimeError("consumer is closed")
        return self._channel.deliver()

    def try_get(self) -> Optional[Message]:
        """Claim an already-queued message without blocking, or None.

        The worker prefetch path: after finishing a job, a consumer drains
        ``ready_count`` messages synchronously before parking on
        :meth:`get` again.
        """
        if self._closed:
            raise RuntimeError("consumer is closed")
        return self._channel.try_deliver()

    def cancel(self, get_event) -> None:
        """Withdraw a pending :meth:`get` safely.

        If no message has been delivered yet the event is resolved with
        ``None`` (the channel's deliver callback tolerates this); if the
        cancel raced an actual delivery, the message is handed straight
        back to the channel so it is not lost.
        """
        if not get_event.triggered:
            get_event.succeed(None)
        else:
            get_event.callbacks.append(
                lambda evt: evt.value is not None and
                self.requeue(evt.value))

    def ack(self, message: Message) -> None:
        self._channel.ack(message)

    def ack_release(self, message: Message) -> None:
        """Ack and recycle the delivery copy (see ``Channel.ack_release``).

        Only for consumers that keep no reference to the message — body,
        headers, or the envelope itself — past this call.
        """
        self._channel.ack_release(message)

    def requeue(self, message: Message) -> bool:
        return self._channel.requeue(message)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._channel.subscriber_count -= 1
            self._channel.topic._maybe_reap()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
