"""Unit tests for the metrics scraper and the SLO burn-rate engine."""

import math

import pytest

from repro.obs.metrics import BUCKETS, MetricsRegistry
from repro.obs.scrape import INTERVAL_SECONDS, MAX_SAMPLES, MetricsScraper
from repro.obs.slo import (
    FAST_WINDOW_SECONDS,
    SloEngine,
    SloSpec,
    _parse_selector,
    default_slos,
)

pytestmark = [pytest.mark.obs, pytest.mark.slo]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def scraper(registry, clock):
    return MetricsScraper(registry, clock)


class TestScraper:
    def test_snapshot_captures_every_kind(self, registry, scraper, clock):
        registry.counter("jobs", status="ok").inc(3)
        registry.gauge("depth", fn=lambda: 5)
        registry.histogram("lat").observe(0.5)
        clock.now = 60.0
        snap = scraper.scrape_now()
        assert snap.time == 60.0
        assert snap.counter("jobs", "status=ok") == 3
        assert snap.counter_total("jobs") == 3
        assert snap.gauge("depth") == 5
        hist = snap.histogram("lat")
        assert hist.count == 1
        assert hist.bucket_counts[:3] == (0, 1, 0)    # (0.1, 0.5]
        assert hist.bounds == BUCKETS + (math.inf,)   # +inf overflow
        assert scraper.last_scrape_at == 60.0

    def test_labelled_callback_gauges_skipped(self, registry, scraper):
        registry.gauge("util", fn=lambda: 0.5, worker="w1")
        registry.gauge("plain", fn=lambda: 7)
        snap = scraper.scrape_now()
        assert ("util", "worker=w1") not in snap.gauges
        assert snap.gauge("plain") == 7

    def test_ring_is_bounded(self, scraper, clock):
        for i in range(MAX_SAMPLES + 12):
            clock.now = float(i)
            scraper.scrape_now()
        assert len(scraper) == MAX_SAMPLES
        assert scraper.total_scrapes == MAX_SAMPLES + 12
        assert scraper._samples[0].time == 12.0

    def test_baseline_falls_back_to_oldest(self, scraper, clock):
        for t in (10.0, 20.0, 30.0):
            clock.now = t
            scraper.scrape_now()
        # Proper baseline: newest snapshot at or before now - window.
        base = scraper.baseline_for(now=30.0, window=15.0)
        assert base.time == 10.0
        # Window reaches past history: oldest retained wins.
        base = scraper.baseline_for(now=30.0, window=500.0)
        assert base.time == 10.0
        assert MetricsScraper(MetricsRegistry(), clock) \
            .baseline_for(30.0, 10.0) is None

    def test_counter_delta_over_window(self, registry, scraper, clock):
        c = registry.counter("jobs")
        c.inc(5)
        clock.now = 60.0
        scraper.scrape_now()
        c.inc(3)
        clock.now = 120.0
        scraper.scrape_now()
        assert scraper.counter_delta("jobs", now=120.0, window=60.0) == 3.0
        # A window past history uses the oldest snapshot (5 at t=60).
        assert scraper.counter_delta("jobs", now=120.0, window=600.0) == 3.0
        assert scraper.counter_delta("nope", now=120.0, window=60.0) == 0.0

    def test_histogram_delta_isolates_window(self, registry, scraper,
                                             clock):
        h = registry.histogram("lat")
        h.observe(0.5)
        clock.now = 60.0
        scraper.scrape_now()
        h.observe(5.0)
        h.observe(5.0)
        clock.now = 120.0
        scraper.scrape_now()
        delta = scraper.histogram_delta("lat", now=120.0, window=60.0)
        assert delta.count == 2
        assert delta.bucket_counts[1:4] == (0, 0, 2)  # 5.0 in (1, 5]
        assert sum(delta.bucket_counts) == 2
        assert delta.sum == pytest.approx(10.0)
        assert scraper.histogram_delta("nope", 120.0, 60.0) is None

    def test_gauge_samples(self, registry, scraper, clock):
        depth = [0]
        registry.gauge("depth", fn=lambda: depth[0])
        for t, v in ((10.0, 1), (20.0, 2), (30.0, 3)):
            clock.now = t
            depth[0] = v
            scraper.scrape_now()
        assert scraper.gauge_samples("depth", now=30.0, window=15.0) == \
            [(20.0, 2), (30.0, 3)]

    def test_process_scrapes_on_the_sim_clock(self):
        from repro.core.system import RaiSystem

        system = RaiSystem(seed=1)
        system.start_observability()
        system.run(until=3.5 * INTERVAL_SECONDS)
        scraper = system.scraper
        seen = scraper.in_window(system.sim.now, math.inf)
        assert [s.time for s in seen] == [INTERVAL_SECONDS * k
                                          for k in (1, 2, 3)]
        assert scraper.total_scrapes == 3


class TestSloSpec:
    def test_budget(self):
        spec = SloSpec(name="s", kind="latency", target=0.95,
                       metric="lat", threshold=30.0)
        assert spec.budget == pytest.approx(0.05)

    @pytest.mark.parametrize("kwargs", [
        dict(kind="nope", target=0.9, metric="m", threshold=1.0),
        dict(kind="latency", target=0.0, metric="m", threshold=1.0),
        dict(kind="latency", target=1.0, metric="m", threshold=1.0),
        dict(kind="latency", target=0.9),               # missing metric
        dict(kind="latency", target=0.9, metric="m"),   # missing threshold
        dict(kind="ratio", target=0.9, bad=("b",)),     # missing good
        dict(kind="ratio", target=0.9, good=("g",)),    # missing bad
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SloSpec(name="bad", **kwargs)

    def test_parse_selector(self):
        assert _parse_selector("jobs") == ("jobs", None)
        assert _parse_selector("jobs{status=ok}") == ("jobs", "status=ok")
        assert _parse_selector("jobs{}") == ("jobs", "")


class TestSloEngine:
    def _engine(self, scraper, spec):
        return SloEngine(scraper, specs=[spec])

    def test_no_data_state(self, scraper, clock):
        spec = SloSpec(name="lat", kind="latency", target=0.9,
                       metric="lat", threshold=10.0)
        engine = self._engine(scraper, spec)
        (status,) = engine.evaluate()
        assert status.state == "no-data"
        assert not status.burning
        assert status.fast.burn_rate == 0.0

    def test_latency_burn_math(self, registry, scraper, clock):
        h = registry.histogram("lat")
        spec = SloSpec(name="lat", kind="latency", target=0.9,
                       metric="lat", threshold=30.0)
        engine = self._engine(scraper, spec)
        clock.now = 10.0
        scraper.scrape_now()
        # 8 good (<= 30s), 2 bad (> 30s): bad fraction 0.2, budget 0.1.
        for _ in range(8):
            h.observe(5.0)
        h.observe(45.0)
        h.observe(45.0)
        clock.now = 70.0
        (status,) = engine.evaluate()
        assert status.fast.good == 8
        assert status.fast.bad == 2
        assert status.fast.bad_fraction == pytest.approx(0.2)
        assert status.fast.burn_rate == pytest.approx(2.0)
        assert status.slow.burn_rate == pytest.approx(2.0)
        assert status.burning
        assert status.state == "burning"

    def test_threshold_inside_bucket_counts_bad(self, registry, scraper,
                                                clock):
        # Bounds 15/30: threshold 20 falls inside the (15, 30] bucket, so
        # a 17s observation cannot be proven good — conservative bad.
        h = registry.histogram("lat")
        spec = SloSpec(name="lat", kind="latency", target=0.5,
                       metric="lat", threshold=20.0)
        engine = self._engine(scraper, spec)
        scraper.scrape_now()  # empty baseline at t=0
        h.observe(17.0)
        clock.now = 10.0
        (status,) = engine.evaluate()
        assert status.fast.good == 0
        assert status.fast.bad == 1

    def test_burning_needs_both_windows(self, registry, scraper, clock):
        h = registry.histogram("lat")
        spec = SloSpec(name="lat", kind="latency", target=0.5,
                       metric="lat", threshold=10.0)
        engine = self._engine(scraper, spec)
        scraper.scrape_now()  # empty baseline at t=0
        # Slow history is clean: 20 good observations, long ago.
        for _ in range(20):
            h.observe(1.0)
        clock.now = 10.0
        scraper.scrape_now()
        clock.now = FAST_WINDOW_SECONDS + 100.0
        scraper.scrape_now()
        # Fast window then goes fully bad...
        h.observe(50.0)
        h.observe(50.0)
        clock.now = FAST_WINDOW_SECONDS + 130.0
        (status,) = engine.evaluate()
        # ...fast burns (2 bad / 2 total) but slow holds (2 bad / 22).
        assert status.fast.burn_rate >= 1.0
        assert status.slow.burn_rate < 1.0
        assert not status.burning
        assert status.state == "ok"

    def test_ratio_kind_with_selectors(self, registry, scraper, clock):
        ok = registry.counter("jobs_finished", status="succeeded")
        failed = registry.counter("jobs_finished", status="failed")
        dead = registry.counter("dead_letters_drained")
        spec = SloSpec(
            name="success", kind="ratio", target=0.9,
            good=("jobs_finished{status=succeeded}",),
            bad=("jobs_finished{status=failed}", "dead_letters_drained"))
        engine = self._engine(scraper, spec)
        scraper.scrape_now()  # empty baseline at t=0
        ok.inc(6)
        failed.inc(1)
        dead.inc(1)
        clock.now = 30.0
        (status,) = engine.evaluate()
        assert status.fast.good == 6
        assert status.fast.bad == 2
        assert status.fast.bad_fraction == pytest.approx(0.25)
        assert status.burning  # 0.25 / 0.1 = 2.5x

    def test_bare_selector_sums_all_labels(self, registry, scraper, clock):
        scraper.scrape_now()  # empty baseline at t=0
        registry.counter("good_things", kind="a").inc(2)
        registry.counter("good_things", kind="b").inc(3)
        registry.counter("bad_things").inc(5)
        spec = SloSpec(name="r", kind="ratio", target=0.5,
                       good=("good_things",), bad=("bad_things",))
        engine = self._engine(scraper, spec)
        clock.now = 30.0
        (status,) = engine.evaluate()
        assert status.fast.good == 5
        assert status.fast.bad == 5

    def test_exemplars_surface_only_when_burning(self, registry, scraper,
                                                 clock):
        h = registry.histogram("lat")
        spec = SloSpec(name="lat", kind="latency", target=0.9,
                       metric="lat", threshold=30.0)
        engine = self._engine(scraper, spec)
        clock.now = 5.0
        scraper.scrape_now()
        h.observe(5.0, trace_id="tr-good", at=6.0)
        clock.now = 50.0
        (ok_status,) = engine.evaluate()
        assert ok_status.state == "ok"
        assert ok_status.exemplars == []
        # Three slow jobs blow the threshold.  Each bucket keeps its
        # latest exemplar, so the two at 45s collapse to tr-slow-1 and
        # the 100s one survives in the overflow bucket.
        h.observe(45.0, trace_id="tr-slow-0", at=51.0)
        h.observe(45.0, trace_id="tr-slow-1", at=52.0)
        h.observe(100.0, trace_id="tr-slow-2", at=53.0)
        clock.now = 60.0
        (burn_status,) = engine.evaluate()
        assert burn_status.burning
        ids = [e.trace_id for e in burn_status.exemplars]
        assert ids == ["tr-slow-2", "tr-slow-1"]


class TestDefaultSlos:
    def test_stock_objectives(self):
        specs = default_slos()
        names = [s.name for s in specs]
        assert names == ["queue-wait-p95", "submission-success"]
        by_name = {s.name: s for s in specs}
        queue = by_name["queue-wait-p95"]
        assert queue.kind == "latency"
        assert queue.metric == "sched_queue_wait_seconds"
        assert queue.threshold == 30.0
        success = by_name["submission-success"]
        assert success.kind == "ratio"
        assert success.target == pytest.approx(0.99)

    def test_threshold_aligns_with_default_buckets(self):
        # The stock queue-wait threshold must sit ON a default histogram
        # bucket bound, or the conservative split would miscount.
        (queue, _) = default_slos()
        assert queue.threshold in BUCKETS
