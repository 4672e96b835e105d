"""Topics and channels."""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.broker.message import Message
from repro.errors import BrokerError
from repro.obs.events import EventType
from repro.sim.resources import Store

#: Deliveries a message gets before it is dead-lettered.
MAX_ATTEMPTS = 5


def _message_doc(msg: Message) -> dict:
    return {
        "id": msg.id,
        "topic": msg.topic,
        "body": msg.body,
        "timestamp": msg.timestamp,
        "attempts": msg.attempts,
        "delivered_at": msg.delivered_at,
        "headers": msg.headers,
    }


def _message_from_doc(doc: dict) -> Message:
    msg = Message(doc["topic"], doc["body"], doc["timestamp"],
                  message_id=doc["id"], headers=doc.get("headers"))
    msg.attempts = int(doc.get("attempts", 0))
    msg.delivered_at = doc.get("delivered_at")
    return msg


class Channel(Store):
    """A competing-consumers queue inside a topic.

    Extends the kernel :class:`~repro.sim.resources.Store` with delivery
    bookkeeping: in-flight tracking, acknowledgement, requeueing with an
    attempt budget, and a dead-letter list (messages are never silently
    lost — resilience is one of the broker's two stated jobs, §IV).

    Each durable state change — claim, settle, unclaim, dead-letter
    removal — is one method that both the live verb and WAL replay call;
    the live verb adds the journal record, spans, events and wake-ups.
    """

    __slots__ = ("topic", "name", "in_flight",
                 "dead_letters", "subscriber_count", "total_delivered",
                 "total_acked", "total_requeued", "total_dead_lettered",
                 "scheduler", "on_queued")

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
        #: Optional dequeue policy (e.g. :class:`repro.sched.JobScheduler`),
        #: installed by :meth:`set_scheduler`.
        self.scheduler = None
        #: Optional ``on_queued(channel)``: called when a put leaves a
        #: message queued with no get parked here to take it.
        self.on_queued = None

    def _wake(self) -> None:
        """Also tell ``on_queued`` when a message is left queued with no
        get here to take it."""
        super()._wake()
        if self.on_queued is not None and self.items and not self._gets:
            self.on_queued(self)

    def set_scheduler(self, scheduler) -> None:
        """Dequeue through ``scheduler`` from now on.

        The queue regroups into ``scheduler.new_queue()`` (per-team FIFOs
        for a :class:`repro.sched.JobScheduler`); ``select(queue) -> key``
        names the team whose head dequeues next, and ``note_dispatch(msg)``
        observes every claimed message.  A plain channel holds one FIFO
        ``deque``.
        """
        self.items = scheduler.new_queue(self.items)
        self.scheduler = scheduler

    @property
    def depth(self) -> int:
        """Queued (not yet delivered) message count: what a consumer can
        claim right now without blocking."""
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
        items = self.items
        scheduler = self.scheduler
        if scheduler is None:
            return items.popleft()
        return items.pop(scheduler.select(items) if len(items) > 1
                         else None)

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
        self._claim(msg, self.sim.now)
        journal = self._journal()
        if journal is not None:
            journal.broker_deliver(self.route, msg.id)
        self._trace_delivery(msg)
        if self.scheduler is not None:
            self.scheduler.note_dispatch(msg)
        if msg.attempts > 1:
            self._emit_event(EventType.BROKER_REDELIVER, msg)

    def _claim(self, msg: Message, at: float) -> None:
        """The state change of a delivery: ``msg`` goes in flight."""
        msg.attempts += 1
        msg.delivered_at = at
        msg._channel = self
        self.in_flight[msg.id] = msg
        self.total_delivered += 1

    def claim(self, message_id: str, at: float) -> Message:
        """Replay a delivery: the queued ``message_id`` goes in flight.

        A scheduled queue finds it through its id map; a plain FIFO
        finds it at its head, where every replayed delivery sits.
        """
        items = self.items
        if self.scheduler is not None:
            msg = items.remove(message_id)
        else:
            msg = next((m for m in items if m.id == message_id), None)
            if msg is not None:
                items.remove(msg)
        if msg is None:
            raise BrokerError(f"{message_id} is not queued on {self.route}")
        self._claim(msg, at)
        return msg

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
        self.settle(message.id)
        journal = self._journal()
        if journal is not None:
            journal.broker_ack(self.route, message.id)
        self.topic._maybe_reap()

    def settle(self, message_id: str) -> None:
        """The state change of an ack.  Every ack counts, in flight or not
        (one a stale sweep already requeued)."""
        self.in_flight.pop(message_id, None)
        self.total_acked += 1

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
        dead = message.attempts >= MAX_ATTEMPTS
        self.unclaim(message, dead)
        # Journal before waking a get: the consumer it hands the message
        # to journals its deliver record after this requeue record.
        journal = self._journal()
        if journal is not None:
            journal.broker_requeue(self.route, message.id,
                                   dead_lettered=dead)
        if dead:
            self._emit_event(EventType.BROKER_DEAD_LETTER, message)
            return False
        self._wake()
        return True

    def unclaim(self, message: Message, dead_lettered: bool) -> None:
        """The state change of a requeue: out of flight, onto the back of
        the queue or into the dead letters."""
        self.in_flight.pop(message.id, None)
        if dead_lettered:
            self.dead_letters.append(message)
            self.total_dead_lettered += 1
        else:
            self.items.append(message)
            self.total_requeued += 1

    def requeue_orphans(self, finished: Callable[[Message], bool]
                        ) -> Tuple[int, int]:
        """Recovery: the consumers holding in-flight messages died.

        A message whose job is ``finished`` settles as acked (fenced);
        the rest go to the front of the queue in delivery order, or to
        the dead letters when out of attempts.  Returns
        ``(requeued, fenced)``.
        """
        requeued = fenced = 0
        for msg in list(self.in_flight.values()):
            if finished(msg):
                self.settle(msg.id)
                fenced += 1
                continue
            msg.delivered_at = None
            dead = msg.attempts >= MAX_ATTEMPTS
            self.unclaim(msg, dead)
            if not dead:
                requeued += 1
        if requeued:
            # ``unclaim`` queued them at the back: rotate them to the front.
            queued = list(self.items)
            self.items.clear()
            self.items.extend(queued[-requeued:] + queued[:-requeued])
        return requeued, fenced

    def drain_dead_letters(self) -> List[Message]:
        """Remove and return every dead-lettered message (for a consumer
        that routes poison messages somewhere durable)."""
        drained = self.remove_dead_letters({m.id for m in self.dead_letters})
        if drained:
            journal = self._journal()
            if journal is not None:
                journal.broker_dl_drain(self.route,
                                        [m.id for m in drained])
        return drained

    def remove_dead_letters(self, message_ids) -> List[Message]:
        """The state change of a drain: the named dead letters leave."""
        drained = [m for m in self.dead_letters if m.id in message_ids]
        self.dead_letters = [m for m in self.dead_letters
                             if m.id not in message_ids]
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
            # Its consumer still holds ``msg`` and may recycle it on ack
            # (``ack_release``): requeue a copy only the channel holds.
            copy = msg.copy_for_channel()
            copy.attempts, copy.delivered_at = msg.attempts, msg.delivered_at
            self.requeue(copy)
        return len(stale)

    # -- snapshot ------------------------------------------------------------

    def to_snapshot(self) -> dict:
        return {
            "name": self.name,
            "items": [_message_doc(m) for m in self.items],
            "in_flight": [_message_doc(m) for m in self.in_flight.values()],
            "dead_letters": [_message_doc(m) for m in self.dead_letters],
            "totals": {
                "delivered": self.total_delivered,
                "acked": self.total_acked,
                "requeued": self.total_requeued,
                "dead_lettered": self.total_dead_lettered,
            },
        }

    def install_snapshot(self, snap: dict) -> int:
        """Replace this channel's state; returns the messages it holds."""
        self.items.clear()
        self.items.extend(_message_from_doc(d) for d in snap.get("items", []))
        self.in_flight.clear()
        for doc in snap.get("in_flight", []):
            msg = _message_from_doc(doc)
            msg._channel = self
            self.in_flight[msg.id] = msg
        self.dead_letters = [_message_from_doc(d)
                             for d in snap.get("dead_letters", [])]
        totals = snap.get("totals", {})
        self.total_delivered = int(totals.get("delivered", 0))
        self.total_acked = int(totals.get("acked", 0))
        self.total_requeued = int(totals.get("requeued", 0))
        self.total_dead_lettered = int(totals.get("dead_lettered", 0))
        return len(self.items) + len(self.in_flight) + len(self.dead_letters)


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

    def to_snapshot(self) -> dict:
        return {
            "name": self.name,
            "total_published": self.total_published,
            "backlog": [_message_doc(m) for m in self.backlog],
            "channels": [c.to_snapshot() for c in self.channels.values()],
        }

    def install_snapshot(self, snap: dict) -> int:
        """Replace this topic's state; returns the messages it holds."""
        self.total_published = int(snap.get("total_published", 0))
        messages = sum(self.channel(c["name"]).install_snapshot(c)
                       for c in snap.get("channels", []))
        # Backlog last: creating the first channel above would otherwise
        # flush a just-restored backlog into it.
        self.backlog = deque(_message_from_doc(d)
                             for d in snap.get("backlog", []))
        return messages + len(self.backlog)

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
