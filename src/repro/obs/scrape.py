"""Periodic snapshots of the metrics registry, for windowed evaluation.

Counters and histograms in :class:`~repro.obs.metrics.MetricsRegistry`
are *cumulative*: they answer "how many ever", never "how many in the
last five minutes".  SLO burn rates need the latter, so the scraper
takes sim-clock snapshots of every series and exposes window-delta
queries: counter increase over a window, histogram bucket deltas over a
window (from which a windowed percentile or a good/bad split falls out),
and gauge sample series (fraction-of-time style SLIs).

Snapshots are compact (plain floats and tuples, no Metric objects) and
ring-buffered, so a week-long simulated course holds a bounded history.
``RaiSystem.start_observability`` calls :meth:`scrape_now` every
:data:`INTERVAL_SECONDS` on the sim clock, and it also works on demand
(``rai slo`` takes a fresh snapshot per report).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

SeriesKey = Tuple[str, str]        # (metric name, label text)

#: Snapshot cadence on the sim clock (the SLO engine's time-series
#: resolution once ``RaiSystem.start_observability`` runs the loop).
INTERVAL_SECONDS = 60.0
#: Snapshots retained.
MAX_SAMPLES = 256


def _label_text(labels: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


class HistogramState:
    """One histogram's cumulative state at scrape time."""

    __slots__ = ("count", "sum", "bucket_counts", "bounds")

    def __init__(self, count: int, sum_: float,
                 bucket_counts: Tuple[int, ...],
                 bounds: Tuple[float, ...]):
        self.count = count
        self.sum = sum_
        self.bucket_counts = bucket_counts
        self.bounds = bounds


class MetricsSnapshot:
    """All series values at one instant of simulated time."""

    __slots__ = ("time", "counters", "gauges", "histograms")

    def __init__(self, time: float):
        self.time = time
        self.counters: Dict[SeriesKey, float] = {}
        self.gauges: Dict[SeriesKey, float] = {}
        self.histograms: Dict[SeriesKey, HistogramState] = {}

    def counter(self, name: str, label: str = "") -> float:
        return self.counters.get((name, label), 0.0)

    def counter_total(self, name: str) -> float:
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def gauge(self, name: str) -> Optional[float]:
        """The unlabelled gauge ``name``'s value, if sampled."""
        return self.gauges.get((name, ""))

    def histogram(self, name: str) -> Optional[HistogramState]:
        """The unlabelled histogram ``name``'s state, if sampled."""
        return self.histograms.get((name, ""))


class MetricsScraper:
    """Bounded history of :class:`MetricsSnapshot`\\ s on the sim clock."""

    def __init__(self, registry: MetricsRegistry,
                 clock: Callable[[], float]):
        self.registry = registry
        self.clock = clock
        self._samples: Deque[MetricsSnapshot] = deque(maxlen=MAX_SAMPLES)
        self.total_scrapes = 0
        #: Sim time of the most recent scrape (heartbeat for watchdogs).
        self.last_scrape_at: Optional[float] = None

    # -- capture ------------------------------------------------------------

    def scrape_now(self) -> MetricsSnapshot:
        """Take one snapshot of every series and append it."""
        snap = MetricsSnapshot(self.clock())
        for metric in self.registry:
            key = (metric.name, _label_text(metric.labels))
            if isinstance(metric, Counter):
                snap.counters[key] = metric.value
            elif isinstance(metric, Histogram):
                snap.histograms[key] = HistogramState(
                    metric.count, metric.sum,
                    tuple(metric.bucket_counts), metric.buckets)
            elif isinstance(metric, Gauge):
                # Labelled callback gauges are skipped: the SLO layer and
                # the health report read deployment-level signals.
                if metric.labels and metric.fn is not None:
                    continue
                snap.gauges[key] = metric.value
        self._samples.append(snap)
        self.total_scrapes += 1
        self.last_scrape_at = snap.time
        return snap

    # -- history access ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._samples)

    def latest(self) -> Optional[MetricsSnapshot]:
        return self._samples[-1] if self._samples else None

    def baseline_for(self, now: float, window: float
                     ) -> Optional[MetricsSnapshot]:
        """Newest snapshot at or before ``now - window``.

        Falls back to the oldest retained snapshot when the window
        reaches past history (best effort, with the true span readable
        off the returned snapshot's ``time``); None with no history.
        """
        cutoff = now - window
        best = None
        for snap in self._samples:
            if snap.time <= cutoff:
                best = snap
            else:
                break
        if best is None and self._samples:
            best = self._samples[0]
        return best

    def in_window(self, now: float, window: float) -> List[MetricsSnapshot]:
        """Snapshots with ``now - window < time <= now``."""
        cutoff = now - window
        return [s for s in self._samples if cutoff < s.time <= now]

    # -- window deltas -------------------------------------------------------

    def counter_delta(self, name: str, now: float, window: float,
                      label: str = "") -> float:
        """Counter increase between the window baseline and the latest
        snapshot."""
        latest = self.latest()
        base = self.baseline_for(now, window)
        if latest is None:
            return 0.0
        end = latest.counter(name, label)
        start = base.counter(name, label) if base is not None else 0.0
        return max(0.0, end - start)

    def histogram_delta(self, name: str, now: float, window: float
                        ) -> Optional[HistogramState]:
        """Bucketed observations of the unlabelled histogram ``name`` that
        landed inside the window."""
        latest = self.latest()
        if latest is None:
            return None
        end = latest.histogram(name)
        if end is None:
            return None
        base = self.baseline_for(now, window)
        start = base.histogram(name) if base is not None else None
        if start is None:
            return HistogramState(end.count, end.sum,
                                  end.bucket_counts, end.bounds)
        counts = tuple(e - s for e, s in zip(end.bucket_counts,
                                             start.bucket_counts))
        return HistogramState(end.count - start.count, end.sum - start.sum,
                              counts, end.bounds)

    def gauge_samples(self, name: str, now: float, window: float
                      ) -> List[Tuple[float, float]]:
        """(time, value) samples of the unlabelled gauge ``name`` inside
        the window."""
        out = []
        for snap in self.in_window(now, window):
            value = snap.gauge(name)
            if value is not None:
                out.append((snap.time, value))
        return out
