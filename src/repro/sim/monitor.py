"""The deployment monitor: named counts in the metrics registry.

The paper reports aggregate operational data (submissions/hour, storage
footprint, queue behaviour).  Counts live in one place, the
:class:`~repro.obs.metrics.MetricsRegistry`; :class:`Monitor` is the
unprefixed name-keyed view the job path increments.  Sampled time series
and latency distributions live in ``repro.obs`` as well
(:class:`~repro.obs.scrape.MetricsScraper`, histograms).
"""

from __future__ import annotations

from repro.obs.metrics import CounterGroup, MetricsRegistry


class Monitor:
    """Unprefixed counters in one deployment's registry.

    ``incr`` is defined here, not inherited: the benchmark's tracer
    swaps ``Monitor.__dict__["incr"]`` (bench/tracing.py:47).
    """

    def __init__(self, metrics: MetricsRegistry):
        self.counters = CounterGroup(metrics)

    def incr(self, name: str, amount: float = 1) -> None:
        self.counters.incr(name, amount)
