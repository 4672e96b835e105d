"""Measurement instruments for simulations.

The paper reports aggregate operational data (submissions/hour, storage
footprint, queue behaviour).  These instruments collect the equivalents:

- :class:`Counter` — monotonically increasing named counts;
- :class:`Monitor` — named counters attached to a simulator.

Sampled time series and latency distributions live in ``repro.obs``
(:class:`~repro.obs.scrape.MetricsScraper`, histograms).
"""

from __future__ import annotations

from typing import Dict


class Counter:
    """Named monotonically increasing counts."""

    def __init__(self):
        self._counts: Dict[str, float] = {}

    def incr(self, name: str, amount: float = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counts)


class Monitor:
    """Counters bound to one simulator."""

    def __init__(self, sim):
        self.sim = sim
        self.counters = Counter()

    def incr(self, name: str, amount: float = 1) -> None:
        self.counters.incr(name, amount)
