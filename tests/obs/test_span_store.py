"""Unit tests for spans, context propagation, the tracer, and the store."""

import pytest

from repro.obs.context import TraceContext
from repro.obs.span import NOOP_SPAN, SpanStatus
from repro.obs import store as store_module
from repro.obs.store import TraceStore
from repro.obs.tracer import Tracer

pytestmark = pytest.mark.obs


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


class TestContextPropagation:
    def test_headers_round_trip(self, tracer, clock):
        span = tracer.start_span("a")
        headers = span.headers()
        ctx = TraceContext.from_headers(headers)
        assert ctx.trace_id == span.trace_id
        assert ctx.span_id == span.span_id

    def test_missing_headers_yield_no_context(self):
        assert TraceContext.from_headers(None) is None
        assert TraceContext.from_headers({}) is None
        assert TraceContext.from_headers({"unrelated": "x"}) is None

    def test_parent_via_headers_joins_trace(self, tracer):
        parent = tracer.start_span("publish")
        child = tracer.start_span("deliver", parent=parent.headers())
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id

    def test_parent_via_span_and_context(self, tracer):
        parent = tracer.start_span("a")
        via_span = tracer.start_span("b", parent=parent)
        via_ctx = tracer.start_span("c", parent=parent.context)
        assert via_span.parent_id == parent.span_id
        assert via_ctx.parent_id == parent.span_id
        assert via_span.trace_id == via_ctx.trace_id == parent.trace_id

    def test_bad_parent_type_raises(self, tracer):
        with pytest.raises(TypeError):
            tracer.start_span("x", parent=42)


class TestSpanLifecycle:
    def test_end_is_idempotent(self, tracer, clock):
        span = tracer.start_span("a")
        clock.now = 5.0
        span.end()
        clock.now = 9.0
        span.end(status="error")
        assert span.end_time == 5.0
        assert span.status == SpanStatus.OK

    def test_backdated_start(self, tracer, clock):
        clock.now = 10.0
        span = tracer.start_span("deliver", start_time=4.0)
        span.end()
        assert span.start_time == 4.0
        assert span.end_time - span.start_time == pytest.approx(6.0)

    def test_events_are_timestamped(self, tracer, clock):
        span = tracer.start_span("a")
        clock.now = 3.0
        span.add_event("retry", attempt=1)
        assert span.events == [(3.0, "retry", {"attempt": 1})]

    def test_context_manager_marks_errors(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.start_span("a") as span:
                raise RuntimeError("boom")
        assert span.status == SpanStatus.ERROR
        assert "boom" in span.status_message

    def test_disabled_tracer_returns_noop(self, clock):
        tracer = Tracer(clock=clock, enabled=False)
        span = tracer.start_span("a")
        assert span is NOOP_SPAN
        assert span.headers() is None
        # The full surface is callable without effect.
        span.set_attribute("k", "v").add_event("e")
        span.end()
        assert len(tracer.store) == 0

    def test_end_subtree_closes_descendants(self, tracer, clock):
        root = tracer.start_span("root")
        child = tracer.start_span("child", parent=root)
        grandchild = tracer.start_span("grand", parent=child)
        clock.now = 7.0
        tracer.end_subtree(root, status="error", message="crash")
        for span in (root, child, grandchild):
            assert not span.is_open
            assert span.status == SpanStatus.ERROR
        assert not tracer.store.trace(root.trace_id).is_live


class TestTraceStore:
    def test_job_binding_via_attribute(self, tracer):
        span = tracer.start_span("a")
        span.set_attribute("job_id", "job-42")
        trace = tracer.store.trace_for_job("job-42")
        assert trace is not None
        assert trace.trace_id == span.trace_id
        assert trace.job_ids == ["job-42"]

    def test_ring_evicts_oldest_finished(self, clock, monkeypatch):
        monkeypatch.setattr(store_module, "MAX_TRACES", 2)
        tracer = Tracer(clock=clock, store=TraceStore())
        first = tracer.start_span("t1", job_id="j1")
        first.end()
        second = tracer.start_span("t2", job_id="j2")
        second.end()
        third = tracer.start_span("t3", job_id="j3")
        third.end()
        store = tracer.store
        assert len(store) == 2
        assert store.trace(first.trace_id) is None
        assert store.trace_for_job("j1") is None  # index cleaned up
        assert store.trace_for_job("j3") is not None
        assert store.total_evicted == 1

    def test_ring_never_evicts_live_traces(self, clock, monkeypatch):
        monkeypatch.setattr(store_module, "MAX_TRACES", 2)
        tracer = Tracer(clock=clock, store=TraceStore())
        live = tracer.start_span("live", job_id="j-live")  # stays open
        for i in range(5):
            tracer.start_span(f"t{i}", job_id=f"j{i}").end()
        store = tracer.store
        assert store.trace(live.trace_id) is not None
        assert store.trace_for_job("j-live") is not None
        assert store.trace_for_job("j-live").is_live
        # Capacity holds for the finished traces around the live one.
        assert len(store) <= 3

    def test_all_live_overflows_capacity(self, clock, monkeypatch):
        monkeypatch.setattr(store_module, "MAX_TRACES", 2)
        tracer = Tracer(clock=clock, store=TraceStore())
        spans = [tracer.start_span(f"t{i}") for i in range(4)]
        assert len(tracer.store) == 4  # nothing evictable
        for s in spans:
            s.end()
        tracer.start_span("t5").end()
        assert len(tracer.store) == 2  # drains back under capacity

    def test_stats(self, tracer):
        tracer.start_span("a").end()
        open_span = tracer.start_span("b")
        stats = tracer.stats()
        assert stats["enabled"] is True
        assert stats["traces"] == 2
        assert stats["live_traces"] == 1
        assert stats["spans_total"] == 2
        open_span.end()

    def test_eviction_cleans_every_job_binding(self, clock, monkeypatch):
        """A trace bound to several job ids drops ALL of them on evict.

        Redelivered jobs (and batch traces) can bind one trace to more
        than one id; eviction must leave no dangling index entries, or a
        later ``trace_for_job`` would return a reaped trace.
        """
        monkeypatch.setattr(store_module, "MAX_TRACES", 1)
        tracer = Tracer(clock=clock, store=TraceStore())
        multi = tracer.start_span("multi", job_id="j-a")
        tracer.store.bind_job("j-b", multi.trace_id)
        multi.end()
        store = tracer.store
        assert store.trace_for_job("j-a") is not None
        assert store.trace_for_job("j-b") is not None
        tracer.start_span("next", job_id="j-c").end()  # evicts `multi`
        assert store.trace(multi.trace_id) is None
        assert store.trace_for_job("j-a") is None
        assert store.trace_for_job("j-b") is None
        assert store.trace_for_job("j-c") is not None
        assert list(store._job_index) == ["j-c"]
