"""The tracer: span factory bound to a clock and a store.

Parents are passed explicitly (a :class:`Span`, a :class:`TraceContext`,
or raw message headers) — there is no ambient "current span", because
simulation processes interleave arbitrarily on one thread and an
implicit context would silently mis-parent spans across jobs.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Union

from repro.obs.context import TraceContext, new_trace_id
from repro.obs.span import NOOP_SPAN, Span, SpanStatus
from repro.obs.store import TraceStore

ParentLike = Union[Span, TraceContext, Mapping, None]


class Tracer:
    """Creates spans stamped with the simulated clock."""

    def __init__(self, clock: Callable[[], float],
                 store: Optional[TraceStore] = None,
                 enabled: bool = True):
        self.clock = clock
        # Explicit None check: an *empty* TraceStore is falsy (__len__).
        self.store = store if store is not None else TraceStore()
        self.enabled = enabled

    def start_span(self, name: str, parent: ParentLike = None,
                   kind: str = "internal",
                   start_time: Optional[float] = None,
                   attributes: Optional[dict] = None,
                   job_id=None):
        """Open a span; returns ``NOOP_SPAN`` when tracing is disabled.

        ``parent`` may be a live :class:`Span`, a :class:`TraceContext`,
        or a message-headers mapping; ``None`` starts a new trace.
        ``start_time`` backdates the span (used by the broker to span
        publish → delivery after the fact).
        """
        if not self.enabled:
            return NOOP_SPAN
        trace_id, parent_id = self._resolve_parent(parent)
        if trace_id is None:
            trace_id = new_trace_id()
        span = Span(name, trace_id=trace_id, parent_id=parent_id, kind=kind,
                    start_time=self.clock() if start_time is None
                    else start_time,
                    attributes=attributes, tracer=self)
        self.store.add_span(span)
        if job_id is not None:
            span.set_attribute("job_id", job_id)
        return span

    @staticmethod
    def _resolve_parent(parent: ParentLike):
        if parent is None:
            return None, None
        if isinstance(parent, Span):
            return parent.trace_id, parent.span_id
        if isinstance(parent, TraceContext):
            return parent.trace_id, parent.span_id
        if isinstance(parent, Mapping):
            ctx = TraceContext.from_headers(parent)
            if ctx is None:
                return None, None
            return ctx.trace_id, ctx.span_id
        if parent is NOOP_SPAN:  # pragma: no cover - Mapping check first
            return None, None
        raise TypeError(f"cannot parent a span on {type(parent).__name__}")

    def end_subtree(self, span, status: Optional[str] = None,
                    message: Optional[str] = None) -> None:
        """End ``span`` and any of its still-open descendants.

        The safety net for exceptional exits (deadline blown mid-command,
        worker crash): whatever child spans the unwinding skipped are
        closed with the same status, so no trace is pinned live forever.
        """
        if span is NOOP_SPAN or not self.enabled:
            span.end(status=status, message=message)
            return
        trace = self.store.trace(span.trace_id)
        if trace is not None:
            subtree = {span.span_id}
            descendants = []
            # Spans are stored in creation order, so one forward pass
            # sees every parent before its children.
            for s in trace.spans:
                if s.parent_id in subtree:
                    subtree.add(s.span_id)
                    descendants.append(s)
            for child in reversed(descendants):
                if child.is_open:
                    child.end(status=status, message=message)
        span.end(status=status, message=message)

    # -- convenience queries -------------------------------------------------

    def stats(self) -> dict:
        return {"enabled": self.enabled, **self.store.stats()}


__all__ = ["Tracer", "SpanStatus"]
