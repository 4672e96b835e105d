"""Sim-clock spans: one timed operation inside a trace.

A span is passive — it never schedules simulator events, so tracing can
be toggled without perturbing a run's event order (the overhead smoke
test asserts exactly this).  Timestamps come from the tracer's clock
(simulated seconds).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.context import TraceContext, new_span_id


class SpanStatus:
    """String constants (kept JSON-trivial on purpose)."""

    UNSET = "unset"
    OK = "ok"
    ERROR = "error"


class Span:
    """One named, timed operation with attributes and point events."""

    __slots__ = ("name", "kind", "trace_id", "span_id", "parent_id",
                 "start_time", "end_time", "status", "status_message",
                 "attributes", "events", "_tracer")

    def __init__(self, name: str, trace_id: str,
                 parent_id: Optional[str] = None,
                 kind: str = "internal",
                 start_time: float = 0.0,
                 attributes: Optional[dict] = None,
                 tracer=None):
        self.name = name
        self.kind = kind
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.start_time = float(start_time)
        self.end_time: Optional[float] = None
        self.status = SpanStatus.UNSET
        self.status_message: Optional[str] = None
        self.attributes: Dict[str, object] = dict(attributes or {})
        #: ``(time, name, fields)`` point events (retries, faults, ...).
        self.events: List[Tuple[float, str, dict]] = []
        self._tracer = tracer

    # -- identity ------------------------------------------------------------

    @property
    def context(self) -> TraceContext:
        """Context downstream spans parent on."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id,
                            parent_id=self.parent_id)

    def headers(self) -> dict:
        """Message headers propagating this span as the remote parent."""
        return self.context.to_headers()

    # -- state ------------------------------------------------------------

    @property
    def is_open(self) -> bool:
        return self.end_time is None

    def set_attribute(self, key: str, value) -> "Span":
        self.attributes[key] = value
        if key == "job_id" and self._tracer is not None:
            self._tracer.store.bind_job(value, self.trace_id)
        return self

    def add_event(self, name: str, **fields) -> "Span":
        at = self._tracer.clock() if self._tracer is not None \
            else self.start_time
        self.events.append((at, name, fields))
        return self

    def end(self, status: Optional[str] = None,
            message: Optional[str] = None,
            at: Optional[float] = None) -> None:
        """Close the span (idempotent — later calls are ignored)."""
        if self.end_time is not None:
            return
        if at is None:
            at = self._tracer.clock() if self._tracer is not None \
                else self.start_time
        self.end_time = float(at)
        if status is not None:
            self.status = status
        elif self.status is SpanStatus.UNSET:
            self.status = SpanStatus.OK
        if message is not None:
            self.status_message = message
        if self._tracer is not None:
            self._tracer.store.note_end(self)

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.end(status=SpanStatus.ERROR,
                     message=f"{type(exc).__name__}: {exc}")
        else:
            self.end()
        return False

    # -- export ------------------------------------------------------------

    def __repr__(self):
        state = ("open" if self.is_open
                 else f"{self.end_time - self.start_time:.3f}s")
        return (f"<Span {self.span_id} {self.name!r} trace={self.trace_id} "
                f"{state}>")


class NoopSpan:
    """The span returned when tracing is disabled.

    Implements the full Span surface as no-ops so call sites never branch
    on whether tracing is on — the overhead of a disabled tracer is one
    attribute check plus this object's method dispatch.
    """

    __slots__ = ()

    name = "noop"
    kind = "noop"
    trace_id = None
    span_id = None
    parent_id = None
    start_time = 0.0
    end_time = 0.0
    status = SpanStatus.UNSET
    status_message = None
    attributes: dict = {}
    events: list = []
    is_open = False
    context = None

    def headers(self) -> None:
        return None

    def set_attribute(self, key, value) -> "NoopSpan":
        return self

    def add_event(self, name, **fields) -> "NoopSpan":
        return self

    def end(self, status=None, message=None, at=None) -> None:
        return None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


#: Shared instance — NoopSpan carries no state.
NOOP_SPAN = NoopSpan()
