"""The deployment-wide structured event log.

Traces answer "what happened inside *this* job"; metrics answer "how
much, in aggregate".  The event log sits between them: a single
time-ordered stream of typed, labelled records — a job's queued and
terminal states, slot churn, redeliveries, fault injections, pool fills,
scheduling and scaling decisions, alert transitions — that an operator
can query by job, by team, by type, or by time window (Ray's
event-log/dashboard design applied to a submission system).  Every
event may carry a ``trace_id``/``span_id``, so any log line links
straight to its waterfall (``rai trace``).

The log is a ring buffer: a course-length run emits far more events than
an operator will ever page through, so only the most recent
:data:`MAX_EVENTS` are kept (drop count is tracked).  Emission is cheap and
allocation-light — one ``Event`` and a deque append — and a disabled log
costs a single attribute check, so the hot path can emit unconditionally.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional

#: Ring capacity: the most recent events an operator can page through.
MAX_EVENTS = 4096


class EventType:
    """The event vocabulary: every ``emit`` names one of these, and each
    has an emitter.  Dotted namespaces group related records; what a
    job's trace holds (its stages, pool and cache outcomes) is not
    restated here.
    """

    JOB_STATE_CHANGE = "job.state_change"
    WORKER_SLOT = "worker.slot"
    WORKER_CRASH = "worker.crash"
    WORKER_MALFORMED_MESSAGE = "worker.malformed_message"
    BROKER_REDELIVER = "broker.redeliver"
    BROKER_DEAD_LETTER = "broker.dead_letter"
    FAULT_INJECTED = "fault.injected"
    FAULT_REPLACEMENT_WORKER = "fault.replacement_worker"
    POOL_FILL = "pool.fill"
    POOL_EVICT = "pool.evict"
    BUILDCACHE_EVICT = "buildcache.evict"
    AUTOSCALE_DECISION = "autoscale.decision"
    SCHED_DISPATCH = "sched.dispatch"
    ALERT_FIRED = "alert.fired"
    ALERT_RESOLVED = "alert.resolved"
    DURABILITY_SNAPSHOT = "durability.snapshot"
    DURABILITY_REPLAY = "durability.replay"
    SHARD_ROUTE = "shard.route"
    SHARD_STEAL = "shard.steal"
    USAGE_SAMPLE = "usage.sample"
    COST_WINDOW = "cost.window"


class Event:
    """One timestamped, typed record with free-form labelled fields."""

    __slots__ = ("time", "type", "trace_id", "span_id", "fields")

    def __init__(self, time: float, type: str,
                 trace_id: Optional[str] = None,
                 span_id: Optional[str] = None,
                 fields: Optional[dict] = None):
        self.time = float(time)
        self.type = type
        self.trace_id = trace_id
        self.span_id = span_id
        self.fields: dict = fields if fields is not None else {}

    @property
    def job_id(self) -> Optional[str]:
        job_id = self.fields.get("job_id")
        return str(job_id) if job_id is not None else None

    def to_dict(self) -> dict:
        out = {"t": self.time, "type": self.type}
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.span_id is not None:
            out["span_id"] = self.span_id
        out["fields"] = dict(self.fields)
        return out

    def __repr__(self):
        tags = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"<Event t={self.time:g} {self.type} {tags}>"


class EventLog:
    """Ring-buffered, queryable stream of :class:`Event` records."""

    __slots__ = ("clock", "enabled", "_events", "total_emitted", "counts")

    def __init__(self, clock: Callable[[], float], enabled: bool = True):
        self.clock = clock
        self.enabled = enabled
        self._events: Deque[Event] = deque(maxlen=MAX_EVENTS)
        self.total_emitted = 0
        #: Emission tallies per event type (never truncated, unlike the
        #: ring itself) — ``rai alerts``/reports read rates off these.
        self.counts: Dict[str, int] = {}

    # -- ingest ------------------------------------------------------------

    def emit(self, type: str, span=None,
             trace_id: Optional[str] = None,
             span_id: Optional[str] = None,
             at: Optional[float] = None,
             **fields) -> Optional[Event]:
        """Append one event; returns it (or None when the log is off).

        ``span`` is a convenience: a live :class:`~repro.obs.span.Span`
        donates its trace/span ids (a ``NoopSpan``'s ids are None, so a
        tracing-disabled run degrades to unlinked events, not errors).
        """
        if not self.enabled:
            return None
        self.total_emitted += 1
        counts = self.counts
        try:
            counts[type] += 1
        except KeyError:
            counts[type] = 1
        if span is not None:
            if trace_id is None:
                trace_id = span.trace_id
            if span_id is None:
                span_id = span.span_id
        # At volume the ring is perpetually full and every append evicts
        # the oldest record, so recycle that object in place instead of
        # allocating a new one — steady-state emission then allocates
        # nothing beyond the caller's kwargs dict.  Recycled events are
        # by definition outside the retained window, and emit's return
        # value is only ever inspected immediately.
        ring = self._events
        if len(ring) == ring.maxlen:
            event = ring.popleft()
            event.time = self.clock() if at is None else at
            event.type = type
            event.trace_id = trace_id
            event.span_id = span_id
            # Refill the retained fields dict rather than replacing it:
            # the caller's kwargs dict then dies young (allocator-hot),
            # instead of evicting a ring-old, cache-cold dict per emit.
            old = event.fields
            old.clear()
            old.update(fields)
        else:
            event = Event(self.clock() if at is None else at, type,
                          trace_id=trace_id, span_id=span_id, fields=fields)
        ring.append(event)
        return event

    # -- query ------------------------------------------------------------

    def query(self, type: Optional[str] = None,
              prefix: Optional[str] = None,
              job_id=None) -> List[Event]:
        """Filter the retained window; all criteria AND together.

        ``type`` matches exactly; ``prefix`` matches a dotted namespace
        (``"pool."`` catches hits, misses, and evictions).
        """
        job_id = str(job_id) if job_id is not None else None
        out: List[Event] = []
        for event in self._events:
            if type is not None and event.type != type:
                continue
            if prefix is not None and not event.type.startswith(prefix):
                continue
            if job_id is not None and event.job_id != job_id:
                continue
            out.append(event)
        return out

    def events_for_job(self, job_id) -> List[Event]:
        """The one-job audit trail (client accept → terminal state)."""
        return self.query(job_id=job_id)

    def tail(self, n: int = 20) -> List[Event]:
        """The most recent ``n`` events."""
        if n <= 0:
            return []
        return list(self._events)[-n:]

    @property
    def dropped(self) -> int:
        """Events emitted but not retained (ring overflow)."""
        return self.total_emitted - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    # -- export ------------------------------------------------------------

    def to_snapshot(self) -> dict:
        return {
            "records": [event.to_dict() for event in self._events],
            "counts": dict(self.counts),
            "total_emitted": self.total_emitted,
        }

    def install_snapshot(self, snap: dict) -> int:
        """Append the snapshot's ring to this log; returns its length."""
        records = snap.get("records", [])
        for doc in records:
            self._events.append(Event(doc["t"], doc["type"],
                                      trace_id=doc.get("trace_id"),
                                      span_id=doc.get("span_id"),
                                      fields=dict(doc.get("fields", {}))))
        self.total_emitted = int(snap.get("total_emitted", len(records)))
        self.counts.update(snap.get("counts", {}))
        return len(records)

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "retained": len(self._events),
            "emitted": self.total_emitted,
            "dropped": self.dropped,
            "max_events": MAX_EVENTS,
            "by_type": dict(sorted(self.counts.items())),
        }
