"""The message broker."""

from __future__ import annotations

from typing import Dict, Optional

from repro.broker import message as _message
from repro.broker.message import Message
from repro.broker.routes import Route, parse_route, validate_name
from repro.broker.topic import Channel, Topic
from repro.errors import MessageTooLarge, UnknownTopic
from repro.obs.metrics import CounterGroup, MetricsRegistry


class MessageBroker:
    """Arbitrates communication between clients and workers (paper §IV).

    Parameters
    ----------
    sim:
        The simulation kernel the broker lives on.
    max_message_bytes:
        Publish-size limit; project archives do NOT travel through the
        broker (they go to the file server), so job messages stay small.
    default_max_attempts:
        Redelivery budget before a message is dead-lettered.
    metrics:
        Shared :class:`~repro.obs.metrics.MetricsRegistry`.  The broker's
        tallies live there under a ``broker_`` prefix; :attr:`counters`
        remains the legacy accessor as a thin view.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  Messages published
        with trace headers get a ``broker.deliver`` span per delivery
        (publish → claim), chaining redeliveries into the same trace.
    """

    #: Topics whose names start with this prefix are ephemeral log topics
    #: (``log_${job_id}`` in the paper).
    EPHEMERAL_PREFIX = "log_"

    def __init__(self, sim, max_message_bytes: int = 1 << 20,
                 default_max_attempts: int = 5,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=None, events=None):
        self.sim = sim
        self.max_message_bytes = max_message_bytes
        self.default_max_attempts = default_max_attempts
        self.topics: Dict[str, Topic] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.counters = CounterGroup(self.metrics, prefix="broker_")
        self.tracer = tracer
        #: Optional :class:`~repro.obs.events.EventLog`; channels reach it
        #: through their topic's broker back-reference to record
        #: redeliveries and dead-letterings.
        self.events = events
        #: Optional :class:`~repro.durability.DurabilityManager` journal.
        #: When set, every durable-topic transition (publish, deliver,
        #: ack, requeue, dead-letter) is appended to the write-ahead log.
        self.journal = None
        #: Optional :class:`~repro.obs.usage.UsageMeter`; wired by
        #: RaiSystem so message traffic bills the publishing tenant.
        self.usage = None

    # -- topology ------------------------------------------------------------

    def topic(self, name: str, ephemeral: Optional[bool] = None) -> Topic:
        """Get or create a topic.

        Ephemerality defaults from the ``log_`` naming convention but can be
        forced either way.
        """
        validate_name(name, "topic")
        t = self.topics.get(name)
        if t is None:
            if ephemeral is None:
                ephemeral = name.startswith(self.EPHEMERAL_PREFIX)
            t = Topic(self.sim, name, ephemeral=ephemeral,
                      max_attempts=self.default_max_attempts,
                      on_empty=self._reap_topic)
            t.broker = self
            self.topics[name] = t
            self.counters.incr("topics_created")
        return t

    def has_topic(self, name: str) -> bool:
        return name in self.topics

    def channel(self, route: str) -> Channel:
        """Get or create the channel for a ``topic/channel`` route."""
        r = parse_route(route) if not isinstance(route, Route) else route
        return self.topic(r.topic).channel(r.channel)

    def delete_topic(self, name: str) -> None:
        if name not in self.topics:
            raise UnknownTopic(name)
        topic = self.topics.pop(name)
        if self.journal is not None and not topic.ephemeral:
            self.journal.broker_topic_delete(name)
        self.counters.incr("topics_deleted")

    def _reap_topic(self, topic: Topic) -> None:
        if topic.name in self.topics and topic.depth == 0:
            del self.topics[topic.name]
            self.counters.incr("topics_reaped")

    # -- data plane ------------------------------------------------------------

    def publish(self, topic_name: str, body, headers=None) -> Message:
        """Publish a JSON-serialisable body; returns the stored message.

        The body is encoded exactly once, here: the size check, the byte
        accounting, ``Message.encoded_size()``, and every channel fan-out
        copy all reuse the same cached payload bytes.  ``headers`` travel
        out-of-band (trace context; never counted against the size
        limit).
        """
        try:
            # Late-bound module lookup so a monkeypatched encoder sees
            # every call site (the Message lazy path uses the same name).
            payload = _message.encode_body(body)
        except (TypeError, ValueError) as exc:
            raise TypeError(f"message body is not JSON-serialisable: {exc}") from exc
        size = len(payload)
        if size > self.max_message_bytes:
            raise MessageTooLarge(
                f"{size} bytes exceeds limit of {self.max_message_bytes}")
        msg = Message(topic_name, body, timestamp=self.sim.now,
                      payload=payload, headers=headers)
        topic = self.topic(topic_name)
        if self.journal is not None and not topic.ephemeral:
            # Journal before publish: a blocked consumer claims the
            # message synchronously inside publish(), and its deliver
            # record must follow this one in the log.
            self.journal.broker_publish(topic_name, body, headers,
                                        msg.id, msg.timestamp)
        topic.publish(msg)
        self.counters.incr("messages_published")
        self.counters.incr("bytes_published", size)
        if self.usage is not None and isinstance(body, dict):
            # Task bodies carry team/username; log-stream and control
            # traffic without them meters as platform overhead.
            self.usage.record("broker_messages", 1.0,
                              tenant=body.get("team")
                              or body.get("username"))
        return msg

    @property
    def total_bytes_published(self) -> int:
        """Legacy accessor — now a view over the metrics registry."""
        return int(self.counters.get("bytes_published"))

    # -- resiliency ------------------------------------------------------------

    def requeue_stale(self, in_flight_timeout: float) -> int:
        """One sweep over every channel; returns requeued count."""
        total = 0
        for topic in list(self.topics.values()):
            for channel in topic.channels.values():
                total += channel.requeue_stale(in_flight_timeout)
        if total:
            self.counters.incr("stale_requeued", total)
        return total

    def dead_letter_count(self) -> int:
        """Messages currently parked in dead-letter lists, broker-wide."""
        return sum(len(channel.dead_letters)
                   for topic in self.topics.values()
                   for channel in topic.channels.values())

    def drain_dead_letters(self):
        """Remove every dead-lettered message broker-wide.

        Returns ``(route, message)`` pairs so a system-level consumer can
        record where each poison message was parked.
        """
        drained = []
        for topic in list(self.topics.values()):
            for channel in topic.channels.values():
                for message in channel.drain_dead_letters():
                    drained.append((f"{topic.name}/{channel.name}", message))
        if drained:
            self.counters.incr("dead_letters_drained", len(drained))
        return drained

    def caretaker(self, interval: float = 60.0,
                  in_flight_timeout: float = 2 * 3600.0):
        """Kernel process sweeping for abandoned in-flight messages.

        The default timeout sits above the 1-hour container lifetime cap,
        so only genuinely dead consumers trigger redelivery.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")

        def loop():
            while True:
                yield self.sim.timeout(interval)
                self.requeue_stale(in_flight_timeout)

        return loop()

    # -- observability ------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "topics": {name: t.stats() for name, t in self.topics.items()},
            "counters": self.counters.as_dict(),
            "bytes_published": self.total_bytes_published,
        }

    def total_depth(self) -> int:
        return sum(t.depth for t in self.topics.values())
