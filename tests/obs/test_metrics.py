"""Unit tests for the unified metrics registry."""

import math

import pytest

from repro.obs.metrics import (
    BUCKETS,
    Counter,
    CounterGroup,
    Gauge,
    Histogram,
    MetricsRegistry,
)

pytestmark = pytest.mark.obs


class TestCounter:
    def test_monotonic(self):
        registry = MetricsRegistry()
        c = registry.counter("jobs")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert registry.value("jobs") == 5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("jobs")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        registry.counter("hits", worker="w1").inc(3)
        registry.counter("hits", worker="w2").inc(5)
        assert registry.value("hits", worker="w1") == 3
        assert registry.value("hits", worker="w2") == 5
        assert sum(m.value for m in registry if m.name == "hits") == 8
        assert sum(m.name == "hits" for m in registry) == 2

    def test_label_order_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("x", a="1", b="2").inc()
        assert registry.value("x", b="2", a="1") == 1


class TestGauge:

    def test_callback_backed(self):
        registry = MetricsRegistry()
        state = {"n": 7}
        g = registry.gauge("live", fn=lambda: state["n"])
        assert g.value == 7
        state["n"] = 9
        assert g.value == 9
        # No callback registered yet: it reads 0.0.
        assert registry.gauge("idle").value == 0.0

    def test_late_bound_callback(self):
        registry = MetricsRegistry()
        registry.gauge("live")
        g = registry.gauge("live", fn=lambda: 42)
        assert g.value == 42


class TestHistogram:
    def test_observe_and_summary(self):
        h = MetricsRegistry().histogram("lat")
        for v in (0.5, 5.0, 50.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(105.5)
        assert h.min == 0.5
        assert h.max == 50.0

    def test_percentile_interpolates(self):
        h = MetricsRegistry().histogram("lat")     # bounds ... 5, 15, 30
        for v in (1.0, 11.0, 21.0, 29.0):
            h.observe(v)
        p50 = h.percentile(50)
        assert 10.0 <= p50 <= 20.0
        # Interpolation resolves to the bucket bound, not the exact max.
        assert h.percentile(100) == pytest.approx(30.0)

    def test_empty_percentile_zero(self):
        # An empty histogram reports 0.0 so report code needs no NaN
        # guard per call site.
        h = MetricsRegistry().histogram("lat")
        assert h.percentile(50) == 0.0
        assert h.percentile(95) == 0.0

    def test_percentile_bucket_boundaries(self):
        h = MetricsRegistry().histogram("lat")
        # Exactly on a bound lands in that bound's bucket (<=).
        for v in (15.0, 30.0, 60.0):
            h.observe(v)
        assert h.bucket_counts[4:7] == [1, 1, 1]
        assert h.percentile(100) == pytest.approx(60.0)
        # A single observation: every percentile within its (1, 5] bucket.
        single = MetricsRegistry().histogram("one")
        single.observe(3.0)
        assert 1.0 <= single.percentile(50) <= 5.0
        # Overflow bucket: interpolation is bounded by the observed max.
        over = MetricsRegistry().histogram("over")
        over.observe(10000.0)
        assert over.percentile(99) <= 10000.0

    def test_to_dict_buckets(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9999.0)
        assert h.count == 3
        assert h.buckets == BUCKETS + (math.inf,)
        assert [i for i, n in enumerate(h.bucket_counts) if n] == \
            [1, 3, len(BUCKETS)]


class TestRegistry:
    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")
        with pytest.raises(TypeError):
            registry.histogram("thing")

    def test_get_missing_returns_none_and_zero(self):
        registry = MetricsRegistry()
        assert registry.get("nope") is None
        assert registry.value("nope") == 0.0

    def test_value_reads_counters_and_gauges_only(self):
        registry = MetricsRegistry()
        registry.histogram("latency").observe(1.0)
        with pytest.raises(TypeError, match="counters and gauges"):
            registry.value("latency")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", k="v").inc(2)
        registry.gauge("g", fn=lambda: 3)
        registry.histogram("h").observe(1.0)
        assert registry.value("c", k="v") == 2
        assert registry.value("g") == 3
        assert registry.get("h").count == 1

    def test_len_and_iter(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        assert len(registry) == 2
        assert {m.name for m in registry} == {"a", "b"}


class TestCounterGroup:
    def test_legacy_surface(self):
        registry = MetricsRegistry()
        group = CounterGroup(registry, prefix="broker_")
        group.incr("published")
        group.incr("published", 2)
        group.incr("bytes", 100)
        assert group.get("published") == 3
        assert group.get("missing") == 0
        assert group.as_dict() == {"published": 3, "bytes": 100}
        # The data actually lives in the shared registry, prefixed.
        assert registry.value("broker_published") == 3

    def test_unprefixed_group_excludes_other_kinds(self):
        registry = MetricsRegistry()
        group = CounterGroup(registry)
        group.incr("jobs")
        registry.gauge("depth", fn=lambda: 5)
        registry.counter("labelled", k="v").inc()
        # Gauges and labelled counters don't leak into the legacy dict.
        assert group.as_dict() == {"jobs": 1}
