"""Waterfall rendering and critical-path analysis of one trace.

``rai trace <job_id>`` renders this: every span as a bar positioned on
the trace's time axis (Ray-timeline style), plus a critical-path table
naming the stage that dominated end-to-end latency — the question the
paper's staff could only answer with wall-clock guesswork.

Reuses the text primitives of :mod:`repro.analysis.report`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.report import format_duration, render_table
from repro.obs.span import Span
from repro.obs.store import Trace

#: Width of a waterfall's bar column, characters.
BAR_WIDTH = 40


def sorted_spans(trace: Trace) -> List[Span]:
    """Spans in (start, creation) order — creation order breaks ties so
    renders are deterministic."""
    return sorted(trace.spans,
                  key=lambda s: (s.start_time, s.span_id))


def _effective_end(span: Span, trace_end: float) -> float:
    return span.end_time if span.end_time is not None else trace_end


def span_depths(trace: Trace) -> Dict[str, int]:
    """Tree depth per span id (roots and orphaned parents at depth 0)."""
    depths: Dict[str, int] = {}
    by_id = {s.span_id: s for s in trace.spans}
    for span in sorted_spans(trace):
        depth = 0
        seen = set()
        cursor = span
        while cursor.parent_id in by_id and cursor.parent_id not in seen:
            seen.add(cursor.span_id)
            cursor = by_id[cursor.parent_id]
            depth += 1
        depths[span.span_id] = depth
    return depths


# -- critical path ----------------------------------------------------------


def _subtree_extents(trace: Trace, trace_end: float) -> Dict[str, list]:
    """Per-span ``[start, end]`` covering the span *and* its descendants.

    Messaging spans routinely outlive their parents (``worker.job`` ends
    long after the ``broker.deliver`` that spawned it), so attribution
    has to look at subtree extents, not own durations.  Spans are stored
    in creation order (parents first), so one reverse pass folds every
    child's extent into its parent's.
    """
    extents = {s.span_id: [s.start_time, _effective_end(s, trace_end)]
               for s in trace.spans}
    for span in reversed(trace.spans):
        parent = extents.get(span.parent_id)
        if parent is not None:
            child = extents[span.span_id]
            parent[0] = min(parent[0], child[0])
            parent[1] = max(parent[1], child[1])
    return extents


def critical_path(trace: Trace) -> List[Span]:
    """The spans end-to-end latency waited on, parents before children.

    Under each span on the path: its latest-finishing child (subtree),
    then, walking back, each child that finished by the time the one
    after it started — a job's stages run one after another, so every
    one of them is waited on, not only the last.
    """
    root = trace.root()
    if root is None:
        return []
    extents = _subtree_extents(trace, trace.end_time())

    def walk(span: Span) -> List[Span]:
        path, cursor = [], float("inf")
        for child in sorted(trace.children_of(span), reverse=True,
                            key=lambda s: (extents[s.span_id][1], s.span_id)):
            if extents[child.span_id][1] <= cursor:
                path[:0] = walk(child)
                cursor = extents[child.span_id][0]
        return [span] + path

    return walk(root)


def exclusive_times(trace: Trace) -> Dict[str, float]:
    """Per-span self time: duration minus time covered by child subtrees.

    A child's whole subtree counts against the parent (a ``client.publish``
    that returns in 0 ms but whose delivery chain runs the job must not
    leave the wait attributed to the parent); overlapping child subtrees
    are merged so concurrent children are not double-counted, and clamping
    at zero keeps the attribution conservative (a stage is only
    "dominant" on time no child accounts for).
    """
    trace_end = trace.end_time()
    extents = _subtree_extents(trace, trace_end)
    out: Dict[str, float] = {}
    for span in trace.spans:
        own_start = span.start_time
        own_end = _effective_end(span, trace_end)
        intervals = []
        for child in trace.children_of(span):
            c_start, c_end = extents[child.span_id]
            c_start = max(c_start, own_start)
            c_end = min(c_end, own_end)
            if c_end > c_start:
                intervals.append((c_start, c_end))
        covered = 0.0
        cursor = own_start
        for c_start, c_end in sorted(intervals):
            if c_end > cursor:
                covered += c_end - max(c_start, cursor)
                cursor = c_end
        out[span.span_id] = max(0.0, (own_end - own_start) - covered)
    return out


def critical_path_report(trace: Trace) -> dict:
    """Structured summary: the path, per-stage self times, the dominant
    stage, and the trace's total duration."""
    path = critical_path(trace)
    self_times = exclusive_times(trace)
    stages = [{
        "name": span.name,
        "span_id": span.span_id,
        "duration_s": _effective_end(span, trace.end_time())
        - span.start_time,
        "self_s": self_times[span.span_id],
    } for span in path]
    dominant = max(stages, key=lambda s: s["self_s"]) if stages else None
    return {
        "trace_id": trace.trace_id,
        "total_s": trace.end_time() - trace.start_time(),
        "path": stages,
        "dominant": dominant,
    }


# -- rendering ----------------------------------------------------------


def render_waterfall(trace: Trace) -> str:
    """ASCII waterfall: one row per span, bars on the trace time axis.

    Spans on the critical path are marked ``*``; span events appear as
    indented annotations under their span row.
    """
    spans = sorted_spans(trace)
    if not spans:
        return f"trace {trace.trace_id}: no spans"
    width = BAR_WIDTH
    start = trace.start_time()
    end = trace.end_time()
    total = max(end - start, 1e-9)
    depths = span_depths(trace)
    on_path = {s.span_id for s in critical_path(trace)}

    name_width = max(len("  " * depths[s.span_id] + s.name)
                     for s in spans) + 2
    lines = [f"trace {trace.trace_id}  "
             f"(total {format_duration(end - start)}, "
             f"{len(spans)} spans, jobs: {', '.join(trace.job_ids) or '-'})"]
    for span in spans:
        s_end = _effective_end(span, end)
        left = int(round((span.start_time - start) / total * width))
        span_cells = max(1, int(round((s_end - span.start_time)
                                      / total * width)))
        span_cells = min(span_cells, width - min(left, width - 1))
        bar = " " * min(left, width - 1) + "█" * span_cells
        bar = bar[:width].ljust(width)
        label = ("  " * depths[span.span_id] + span.name).ljust(name_width)
        mark = "*" if span.span_id in on_path else " "
        status = "…" if span.is_open else \
            ("✗" if span.status == "error" else " ")
        lines.append(f"{mark}{label}|{bar}| "
                     f"{format_duration(s_end - span.start_time):>9} {status}")
        for t, event_name, fields in span.events:
            detail = ", ".join(f"{k}={v}" for k, v in fields.items())
            lines.append(f" {'':{name_width}}↳ {event_name}"
                         f" @ +{format_duration(t - start)}"
                         f"{'  (' + detail + ')' if detail else ''}")
    return "\n".join(lines)


def render_critical_path(trace: Trace) -> str:
    report = critical_path_report(trace)
    rows = [[stage["name"],
             format_duration(stage["duration_s"]),
             format_duration(stage["self_s"]),
             "◀ dominant" if report["dominant"] is not None
             and stage["span_id"] == report["dominant"]["span_id"] else ""]
            for stage in report["path"]]
    table = render_table(["stage", "duration", "self", ""], rows,
                         title=f"critical path "
                               f"(total {format_duration(report['total_s'])})")
    return table


def render_trace_report(trace: Trace) -> str:
    """The full ``rai trace`` output: waterfall + critical path."""
    return render_waterfall(trace) + "\n\n" + render_critical_path(trace)


def find_trace(store, job_or_trace_id: str) -> Optional[Trace]:
    """Resolve a CLI argument: job id first, then raw trace id."""
    trace = store.trace_for_job(job_or_trace_id)
    if trace is None:
        trace = store.trace(job_or_trace_id)
    return trace
