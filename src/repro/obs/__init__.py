"""``repro.obs`` — end-to-end distributed tracing + a unified metrics
registry.

The third leg of the roadmap after robustness (PR 1) and performance
(PR 2): per-job provenance.  One trace follows a submission from client
publish through broker delivery, worker claim, buildspec parse,
container commands, storage transfers, and docdb writes to the result
publish; retries and injected faults land as span events, so a chaos
run is explainable job by job.  The metrics registry is the one home of
the deployment's counts, and callback-backed gauges feed the metrics
scraper and operator report from one definition.

The loop closes with :mod:`repro.obs.events` (the deployment-wide
structured event stream), :mod:`repro.obs.scrape` (windowed registry
snapshots), :mod:`repro.obs.slo` (declarative objectives with
multi-window burn rates), and :mod:`repro.obs.alerts` (fire/resolve
incident management) — metrics judge themselves, alerts land back in
the event log, and histogram exemplars link a burned objective to the
exact traces that burned it.
"""

from repro.obs.alerts import Alert, AlertManager
from repro.obs.context import (
    TraceContext,
    new_span_id,
    new_trace_id,
    reset_obs_ids,
)
from repro.obs.events import Event, EventLog, EventType
from repro.obs.metrics import (
    Counter,
    CounterGroup,
    Exemplar,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.scrape import MetricsScraper, MetricsSnapshot
from repro.obs.slo import SloEngine, SloSpec, SloStatus, default_slos
from repro.obs.span import NOOP_SPAN, NoopSpan, Span, SpanStatus
from repro.obs.store import Trace, TraceStore
from repro.obs.usage import (
    UNATTRIBUTED,
    USAGE_RESOURCES,
    CostAllocator,
    CostWindow,
    UsageMeter,
)
from repro.obs.tracer import Tracer
from repro.obs.waterfall import (
    critical_path,
    critical_path_report,
    find_trace,
    render_trace_report,
    render_waterfall,
)

__all__ = [
    "TraceContext", "new_trace_id", "new_span_id", "reset_obs_ids",
    "Span", "NoopSpan", "NOOP_SPAN", "SpanStatus",
    "Tracer", "Trace", "TraceStore",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "CounterGroup",
    "Exemplar",
    "Event", "EventLog", "EventType",
    "MetricsScraper", "MetricsSnapshot",
    "SloSpec", "SloEngine", "SloStatus", "default_slos",
    "Alert", "AlertManager",
    "UsageMeter", "CostAllocator", "CostWindow",
    "USAGE_RESOURCES", "UNATTRIBUTED",
    "critical_path", "critical_path_report", "render_waterfall",
    "render_trace_report", "find_trace",
]
