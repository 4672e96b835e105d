"""Topics and channels."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.broker.message import Message
from repro.sim.resources import Store

#: Deliveries a message gets before it is dead-lettered.
MAX_ATTEMPTS = 5


class Channel(Store):
    """A competing-consumers queue inside a topic.

    Extends the kernel :class:`~repro.sim.resources.Store` with delivery
    bookkeeping: in-flight tracking, acknowledgement, requeueing with an
    attempt budget, and a dead-letter list (messages are never silently
    lost — resilience is one of the broker's two stated jobs, §IV).
    """

    __slots__ = ("topic", "name", "in_flight",
                 "dead_letters", "subscriber_count", "total_delivered",
                 "total_acked", "total_requeued", "total_dead_lettered",
                 "total_prefetched", "scheduler", "on_queued")

    def __init__(self, sim, topic: "Topic", name: str):
        super().__init__(sim)
        self.topic = topic
        self.name = name
        self.in_flight: Dict[str, Message] = {}
        self.dead_letters: List[Message] = []
        self.subscriber_count = 0
        self.total_delivered = 0
        self.total_acked = 0
        self.total_requeued = 0
        self.total_dead_lettered = 0
        self.total_prefetched = 0
        #: Optional dequeue policy (e.g. :class:`repro.sched.JobScheduler`):
        #: ``select(items) -> index`` reorders the queue on dequeue,
        #: ``note_dispatch(msg)`` observes every claimed message.
        self.scheduler = None
        #: Optional ``on_queued(channel)``: called when a put leaves a
        #: message queued with no get parked here to take it.
        self.on_queued = None

    def put(self, message: Message) -> None:
        super().put(message)
        if self.on_queued is not None and self.items and not self._gets:
            self.on_queued(self)

    @property
    def depth(self) -> int:
        """Queued (not yet delivered) message count."""
        return len(self.items)

    @property
    def ready_count(self) -> int:
        """Messages claimable *right now* without blocking — the prefetch
        signal: a worker finishing a job can drain this many more before
        going back to sleep on ``deliver()``."""
        return len(self.items)

    def _journal(self):
        """The deployment's durability journal, or None.

        Ephemeral ``log_*`` topics are never journaled: their contents
        die with the process by design, and logging every streamed log
        line would dominate the WAL.
        """
        if self.topic.ephemeral:
            return None
        return getattr(self.topic.broker, "journal", None)

    @property
    def route(self) -> str:
        return f"{self.topic.name}/{self.name}"

    def _pop_next(self) -> Message:
        if self.scheduler is not None and len(self.items) > 1:
            index = self.scheduler.select(self.items)
            if 0 < index < len(self.items):
                item = self.items[index]
                del self.items[index]
                return item
        return self.items.popleft()

    def deliver(self) -> "StoreGetWrapper":
        """Event yielding the next message; marks it in-flight on fire."""
        get_event = self.get()
        get_event.callbacks.insert(0, self._on_deliver)
        return get_event

    def try_deliver(self) -> Optional[Message]:
        """Claim the next message synchronously, or None.

        The prefetch path: bypasses the event machinery when a message is
        already queued, so a worker can pull a batch per wakeup instead of
        paying one scheduler round-trip per message.  Never steals from a
        blocked ``deliver()`` — returns None while gets are pending.
        """
        if not self.items or self._gets:
            return None
        msg = self._pop_next()
        self.total_prefetched += 1
        self._mark_delivered(msg)
        return msg

    def _on_deliver(self, event) -> None:
        msg: Message = event.value
        if msg is None:
            # The get was cancelled (consumer shut down) before a message
            # arrived; nothing to mark in-flight.
            return
        self._mark_delivered(msg)

    def _mark_delivered(self, msg: Message) -> None:
        msg.attempts += 1
        msg.delivered_at = self.sim.now
        msg._channel = self
        self.in_flight[msg.id] = msg
        self.total_delivered += 1
        journal = self._journal()
        if journal is not None:
            journal.broker_deliver(self.route, msg.id)
        self._trace_delivery(msg)
        if self.scheduler is not None:
            self.scheduler.note_dispatch(msg)
        if msg.attempts > 1:
            self._emit_event("broker.redeliver", msg)

    def _emit_event(self, type: str, msg: Message, **fields) -> None:
        """Record a delivery anomaly in the deployment event log.

        Runs after :meth:`_trace_delivery`, so the message's headers
        carry this delivery attempt's span — the event links straight to
        the redelivery chain in the waterfall.
        """
        broker = getattr(self.topic, "broker", None)
        events = getattr(broker, "events", None)
        if events is None:
            return
        body = msg.body if isinstance(msg.body, dict) else {}
        headers = msg.headers or {}
        events.emit(type,
                    trace_id=headers.get("trace_id"),
                    span_id=headers.get("span_id"),
                    route=f"{self.topic.name}/{self.name}",
                    message_id=msg.id, attempt=msg.attempts,
                    job_id=body.get("job_id"), team=body.get("team"),
                    **fields)

    def _trace_delivery(self, msg: Message) -> None:
        """Span the publish → claim gap for trace-carrying messages.

        The completed ``broker.deliver`` span replaces the message's
        headers with its own context, so the consumer's span — and any
        redelivery's deliver span — parents on *this* delivery: a
        redelivered job reads as a chain, one deliver span per attempt.
        """
        broker = getattr(self.topic, "broker", None)
        tracer = getattr(broker, "tracer", None)
        if not msg.headers or tracer is None or not tracer.enabled:
            return
        span = tracer.start_span(
            "broker.deliver", parent=msg.headers, kind="broker",
            start_time=msg.timestamp,
            attributes={"topic": self.topic.name, "channel": self.name,
                        "message_id": msg.id, "attempt": msg.attempts})
        if msg.attempts > 1:
            span.add_event("redelivery", attempt=msg.attempts)
        span.end(at=self.sim.now)
        msg.headers = span.headers()

    def ack(self, message: Message) -> None:
        self.in_flight.pop(message.id, None)
        self.total_acked += 1
        journal = self._journal()
        if journal is not None:
            journal.broker_ack(self.route, message.id)
        self.topic._maybe_reap()

    def ack_release(self, message: Message) -> None:
        """Ack and recycle the delivery copy into the message freelist.

        Opt-in fast path for consumers that are provably done reading the
        message (body, headers, everything) by the time they ack.  A plain
        :meth:`ack` never recycles — callers routinely inspect the body
        after acking, and handing their message to the pool would let a
        later publish mutate it under them.
        """
        self.ack(message)
        message.release()

    def requeue(self, message: Message) -> bool:
        """Return the message to the queue; dead-letter if out of attempts.

        Returns True if requeued, False if dead-lettered.
        """
        self.in_flight.pop(message.id, None)
        journal = self._journal()
        if message.attempts >= MAX_ATTEMPTS:
            self.dead_letters.append(message)
            self.total_dead_lettered += 1
            if journal is not None:
                journal.broker_requeue(self.route, message.id,
                                       dead_lettered=True)
            self._emit_event("broker.dead_letter", message)
            return False
        self.total_requeued += 1
        # Journal before put(): a blocked consumer claims the message
        # synchronously inside put(), and its deliver record must land
        # after this requeue record for replay to make sense.
        if journal is not None:
            journal.broker_requeue(self.route, message.id,
                                   dead_lettered=False)
        self.put(message)
        return True

    def drain_dead_letters(self) -> List[Message]:
        """Remove and return every dead-lettered message (for a consumer
        that routes poison messages somewhere durable)."""
        drained, self.dead_letters = self.dead_letters, []
        if drained:
            journal = self._journal()
            if journal is not None:
                journal.broker_dl_drain(self.route,
                                        [m.id for m in drained])
        return drained

    def requeue_stale(self, in_flight_timeout: float) -> int:
        """Requeue messages delivered but not acked within the timeout.

        This is the resiliency half of the broker's job (§IV): a consumer
        that died mid-job (worker crash, instance termination) neither
        acks nor requeues, so a caretaker sweep returns its messages to
        the queue for redelivery — at-least-once semantics.
        """
        now = self.sim.now
        stale = [msg for msg in self.in_flight.values()
                 if msg.delivered_at is not None
                 and now - msg.delivered_at >= in_flight_timeout]
        for msg in stale:
            self.requeue(msg)
        return len(stale)


class Topic:
    """A named fan-out point.

    Messages published to a topic are copied to every channel.  Messages
    published while a topic has *no* channels are buffered in the topic
    backlog and flushed to the first channel created — so a worker's first
    log lines are not lost if the client has not subscribed yet (the paper's
    worker creates ``log_${job_id}`` then immediately starts streaming).
    """

    __slots__ = ("sim", "name", "ephemeral", "channels",
                 "backlog", "producer_count", "total_published", "broker",
                 "_on_empty")

    def __init__(self, sim, name: str, ephemeral: bool = False,
                 on_empty=None):
        self.sim = sim
        self.name = name
        self.ephemeral = ephemeral
        self.channels: Dict[str, Channel] = {}
        self.backlog: Deque[Message] = deque()
        self.producer_count = 0
        self.total_published = 0
        #: Back-reference set by :class:`~repro.broker.broker.MessageBroker`
        #: (None for free-standing topics in unit tests); channels use it
        #: to reach the broker's tracer for delivery spans.
        self.broker = None
        #: Callback invoked when an ephemeral topic becomes garbage.
        self._on_empty = on_empty

    def channel(self, name: str) -> Channel:
        ch = self.channels.get(name)
        if ch is None:
            ch = Channel(self.sim, self, name)
            self.channels[name] = ch
            if not self.ephemeral:
                journal = getattr(self.broker, "journal", None)
                if journal is not None:
                    journal.broker_channel(self.name, name)
            if len(self.channels) == 1:
                while self.backlog:
                    ch.put(self.backlog.popleft())
        return ch

    def publish(self, message: Message) -> None:
        self.total_published += 1
        if not self.channels:
            self.backlog.append(message)
            return
        for ch in self.channels.values():
            ch.put(message.copy_for_channel())

    @property
    def depth(self) -> int:
        return len(self.backlog) + sum(c.depth for c in self.channels.values())

    def is_garbage(self) -> bool:
        """True when an ephemeral topic can be reaped (paper §V: "both the
        topic and channel are deleted if there are no producers and
        consumers")."""
        if not self.ephemeral:
            return False
        if self.producer_count > 0:
            return False
        if any(c.subscriber_count > 0 for c in self.channels.values()):
            return False
        return True

    def _maybe_reap(self) -> None:
        if self.is_garbage() and self._on_empty is not None:
            self._on_empty(self)
