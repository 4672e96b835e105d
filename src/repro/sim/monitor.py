"""Measurement instruments for simulations.

The paper reports aggregate operational data (submissions/hour, storage
footprint, queue behaviour).  These instruments collect the equivalents:

- :class:`Counter` — monotonically increasing named counts;
- :class:`Monitor` — named counters plus a timestamped audit log,
  attached to a simulator.

Sampled time series and latency distributions live in ``repro.obs``
(:class:`~repro.obs.scrape.MetricsScraper`, histograms).
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class Counter:
    """Named monotonically increasing counts."""

    def __init__(self):
        self._counts: Dict[str, float] = {}

    def incr(self, name: str, amount: float = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> float:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counts)


class Monitor:
    """Counters and an audit log bound to one simulator."""

    def __init__(self, sim):
        self.sim = sim
        self.counters = Counter()
        #: Structured event log: (time, kind, fields) per :meth:`log` call.
        self.events: List[Tuple[float, str, dict]] = []

    def incr(self, name: str, amount: float = 1) -> None:
        self.counters.incr(name, amount)

    def log(self, __event_kind: str, **fields) -> None:
        """Append a timestamped structured event (fault injections,
        malformed messages, dead-letterings — anything an operator would
        want in an audit trail).  The first argument is positional-only
        so ``fields`` may itself contain a ``kind`` key."""
        self.events.append((self.sim.now, __event_kind, fields))

    def events_of(self, kind: str) -> List[Tuple[float, dict]]:
        return [(t, fields) for t, k, fields in self.events if k == kind]
