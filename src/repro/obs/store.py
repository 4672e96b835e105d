"""In-memory trace storage: ring-buffered, queryable by job id.

A course deployment traces every submission; an operator debugging one
job needs *that* job's spans long after thousands of later submissions
have pushed it toward eviction.  The store therefore:

- keeps at most ``max_traces`` traces, evicting oldest-first, but
- never evicts a *live* trace (one with open spans): eviction skips it,
  so a crash-recovery trace that stays open across redelivery cannot be
  orphaned mid-flight by a resubmission storm (the chaos suite asserts
  this) — without walking past the live ones: a trace whose last span
  closes joins a min-heap keyed by creation order, and eviction pops it,
  skipping entries for traces already evicted or live again, and
- maintains a ``job_id → trace_id`` index fed by span attributes, the
  query key ``rai trace <job_id>`` uses.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.span import Span


class Trace:
    """All spans sharing one trace_id, in creation order."""

    __slots__ = ("trace_id", "spans", "job_ids", "_open", "seq")

    def __init__(self, trace_id: str, seq: int = 0):
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self.job_ids: List[str] = []
        self._open = 0
        #: Creation order within its store (the eviction key).
        self.seq = seq

    @property
    def open_spans(self) -> int:
        return self._open

    @property
    def is_live(self) -> bool:
        return self._open > 0

    def root(self) -> Optional[Span]:
        for span in self.spans:
            if span.parent_id is None:
                return span
        return self.spans[0] if self.spans else None

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def span(self, span_id: str) -> Optional[Span]:
        for s in self.spans:
            if s.span_id == span_id:
                return s
        return None

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def start_time(self) -> float:
        return min((s.start_time for s in self.spans), default=0.0)

    def end_time(self) -> float:
        return max((s.end_time for s in self.spans
                    if s.end_time is not None), default=self.start_time())

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self):
        return (f"<Trace {self.trace_id} spans={len(self.spans)} "
                f"open={self._open} jobs={self.job_ids}>")


class TraceStore:
    """Ring buffer of traces with a job-id index."""

    def __init__(self, max_traces: int = 512):
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.max_traces = max_traces
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()
        self._job_index: Dict[str, str] = {}
        self._seq = itertools.count()
        #: ``(seq, trace_id)`` of traces that went non-live, oldest first;
        #: an entry may be stale (evicted, or live again) and is skipped.
        self._idle: List[Tuple[int, str]] = []
        self.total_spans = 0
        self.total_evicted = 0

    # -- ingest ------------------------------------------------------------

    def add_span(self, span: Span) -> None:
        trace = self._traces.get(span.trace_id)
        is_new = trace is None
        if is_new:
            trace = self._traces[span.trace_id] = Trace(
                span.trace_id, next(self._seq))
        trace.spans.append(span)
        trace._open += 1
        self.total_spans += 1
        if is_new:
            # Evict only after the span lands: the new trace now counts
            # as live, so it can never select itself as the victim.
            self._evict_over_capacity()

    def note_end(self, span: Span) -> None:
        """Called (once, via ``Span.end``) when a stored span closes."""
        trace = self._traces.get(span.trace_id)
        if trace is not None and trace._open > 0:
            trace._open -= 1
            if not trace._open:
                heapq.heappush(self._idle, (trace.seq, trace.trace_id))

    def bind_job(self, job_id, trace_id: str) -> None:
        if job_id is None:
            return
        self._job_index[str(job_id)] = trace_id
        trace = self._traces.get(trace_id)
        if trace is not None and job_id not in trace.job_ids:
            trace.job_ids.append(str(job_id))

    def _evict_over_capacity(self) -> None:
        idle, traces = self._idle, self._traces
        while len(traces) > self.max_traces:
            while idle:
                seq, trace_id = heapq.heappop(idle)
                victim = traces.get(trace_id)
                # ``seq`` also tells a stale entry from a later trace that
                # reuses an evicted one's id.
                if victim is not None and victim.seq == seq \
                        and not victim.is_live:
                    break
            else:
                # Every stored trace still has open spans; growing past
                # capacity is the lesser evil vs. orphaning live jobs.
                return
            del traces[trace_id]
            for job_id in victim.job_ids:
                if self._job_index.get(job_id) == trace_id:
                    del self._job_index[job_id]
            self.total_evicted += 1

    # -- query ------------------------------------------------------------

    def trace(self, trace_id: str) -> Optional[Trace]:
        return self._traces.get(trace_id)

    def trace_for_job(self, job_id) -> Optional[Trace]:
        trace_id = self._job_index.get(str(job_id))
        return self._traces.get(trace_id) if trace_id is not None else None

    def spans_for_job(self, job_id) -> List[Span]:
        trace = self.trace_for_job(job_id)
        return list(trace.spans) if trace is not None else []

    def traces(self) -> Iterator[Trace]:
        return iter(self._traces.values())

    def job_ids(self) -> List[str]:
        return list(self._job_index)

    def __len__(self) -> int:
        return len(self._traces)

    def stats(self) -> dict:
        return {
            "traces": len(self._traces),
            "live_traces": sum(1 for t in self._traces.values() if t.is_live),
            "spans_stored": sum(len(t) for t in self._traces.values()),
            "spans_total": self.total_spans,
            "evicted": self.total_evicted,
            "max_traces": self.max_traces,
        }
