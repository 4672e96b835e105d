"""Unit tests for the metrics scraper and the two stock objectives'
burn-rate arithmetic."""

import math

import pytest

from repro.obs.alerts import (
    FAST_WINDOW_SECONDS,
    MAX_EXEMPLARS,
    QUEUE_WAIT_P95_SECONDS,
    AlertManager,
)
from repro.obs.metrics import BUCKETS, MetricsRegistry
from repro.obs.scrape import INTERVAL_SECONDS, MAX_SAMPLES, MetricsScraper

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
        seen = scraper.gauge_samples("queue_depth", system.sim.now, math.inf)
        assert [t for t, _ in seen] == [INTERVAL_SECONDS * k
                                        for k in (1, 2, 3)]
        assert scraper.total_scrapes == 3


QUEUE_WAIT = "sched_queue_wait_seconds"


@pytest.fixture
def judge(scraper):
    return AlertManager(scraper)


def judged(judge, clock):
    """The two stock objectives judged now, by name."""
    return {status.name: status for status in judge.statuses(clock.now)}


class TestDefaultSlos:
    def test_stock_objectives(self, judge, clock):
        assert [(s.name, s.target) for s in judge.statuses(clock.now)] == \
            [("queue-wait-p95", 0.95), ("submission-success", 0.99)]

    def test_threshold_aligns_with_default_buckets(self):
        # The queue-wait bound must sit ON a default histogram bucket
        # bound, or the conservative split would miscount.
        assert QUEUE_WAIT_P95_SECONDS in BUCKETS


class TestSloEngine:
    """The alert manager's burn arithmetic over the stock objectives."""

    def test_no_data_state(self, judge, clock):
        for status in judge.statuses(clock.now):
            assert status.state == "no-data"
            assert not status.burning
            assert status.fast.burn_rate == 0.0

    def test_latency_burn_math(self, registry, scraper, judge, clock):
        h = registry.histogram(QUEUE_WAIT)
        clock.now = 10.0
        scraper.scrape_now()
        # 18 good (<= 30s), 2 bad (> 30s): bad fraction 0.1, budget 0.05.
        for _ in range(18):
            h.observe(5.0)
        h.observe(45.0)
        h.observe(45.0)
        clock.now = 70.0
        scraper.scrape_now()
        status = judged(judge, clock)["queue-wait-p95"]
        assert status.fast.good == 18
        assert status.fast.bad == 2
        assert status.fast.burn_rate == pytest.approx(2.0)
        assert status.slow.burn_rate == pytest.approx(2.0)
        assert status.burning
        assert status.state == "burning"

    def test_bound_bucket_counts_good(self, registry, scraper, judge,
                                      clock):
        # 30s lands in the (15, 30] bucket, provably under the bound; a
        # wait just over it lands in (30, 60] and counts bad.
        h = registry.histogram(QUEUE_WAIT)
        scraper.scrape_now()  # empty baseline at t=0
        h.observe(30.0)
        h.observe(30.5)
        clock.now = 10.0
        scraper.scrape_now()
        status = judged(judge, clock)["queue-wait-p95"]
        assert (status.fast.good, status.fast.bad) == (1, 1)

    def test_burning_needs_both_windows(self, registry, scraper, judge,
                                        clock):
        h = registry.histogram(QUEUE_WAIT)
        scraper.scrape_now()  # empty baseline at t=0
        # Slow history is clean: 100 good observations, long ago.
        for _ in range(100):
            h.observe(1.0)
        clock.now = 10.0
        scraper.scrape_now()
        clock.now = FAST_WINDOW_SECONDS + 100.0
        scraper.scrape_now()
        # Fast window then goes fully bad...
        h.observe(50.0)
        h.observe(50.0)
        clock.now = FAST_WINDOW_SECONDS + 130.0
        scraper.scrape_now()
        status = judged(judge, clock)["queue-wait-p95"]
        # ...fast burns (2 bad / 2 total) but slow holds (2 bad / 102).
        assert status.fast.burn_rate >= 1.0
        assert status.slow.burn_rate < 1.0
        assert not status.burning
        assert status.state == "ok"

    def test_success_ratio_math(self, registry, scraper, judge, clock):
        ok = registry.counter("jobs_finished", status="succeeded")
        failed = registry.counter("jobs_finished", status="failed")
        dead = registry.counter("dead_letters_drained")
        scraper.scrape_now()  # empty baseline at t=0
        ok.inc(98)
        failed.inc(1)
        dead.inc(1)
        clock.now = 30.0
        scraper.scrape_now()
        status = judged(judge, clock)["submission-success"]
        assert status.fast.good == 98
        assert status.fast.bad == 2
        assert status.fast.burn_rate == pytest.approx(2.0)
        assert status.burning
        assert status.exemplars == []

    def test_exemplars_surface_only_when_burning(self, registry, scraper,
                                                 judge, clock):
        h = registry.histogram(QUEUE_WAIT)
        clock.now = 5.0
        scraper.scrape_now()
        h.observe(5.0, trace_id="tr-good", at=6.0)
        clock.now = 50.0
        scraper.scrape_now()
        ok_status = judged(judge, clock)["queue-wait-p95"]
        assert ok_status.state == "ok"
        assert ok_status.exemplars == []
        # Three slow jobs blow the bound.  Each bucket keeps its latest
        # exemplar, so the two at 45s collapse to tr-slow-1 and the 100s
        # one survives in the (60, 120] bucket.
        h.observe(45.0, trace_id="tr-slow-0", at=51.0)
        h.observe(45.0, trace_id="tr-slow-1", at=52.0)
        h.observe(100.0, trace_id="tr-slow-2", at=53.0)
        clock.now = 60.0
        scraper.scrape_now()
        burn_status = judged(judge, clock)["queue-wait-p95"]
        assert burn_status.burning
        ids = [e.trace_id for e in burn_status.exemplars]
        assert ids == ["tr-slow-2", "tr-slow-1"]

    def test_exemplars_newest_first_and_capped(self, registry, scraper,
                                               judge, clock):
        h = registry.histogram(QUEUE_WAIT)
        scraper.scrape_now()  # empty baseline at t=0
        # One slow wait in each of the seven buckets above 30s.
        waits = [b for b in BUCKETS if b > QUEUE_WAIT_P95_SECONDS]
        waits.append(7200.0)
        for i, wait in enumerate(waits):
            h.observe(wait, trace_id=f"tr-{i}", at=float(i))
        clock.now = 10.0
        scraper.scrape_now()
        status = judged(judge, clock)["queue-wait-p95"]
        assert [e.trace_id for e in status.exemplars] == \
            [f"tr-{i}" for i in range(6, 6 - MAX_EXEMPLARS, -1)]
