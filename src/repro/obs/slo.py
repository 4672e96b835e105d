"""Declarative SLOs with multi-window burn-rate evaluation.

The operational questions the paper's staff answered by eyeballing
dashboards — "is the queue backed up?", "are submissions succeeding?" —
become declarative :class:`SloSpec`\\ s judged automatically over
:class:`~repro.obs.scrape.MetricsScraper` history:

- **latency** — "p95 of histogram H stays under T seconds" expressed as
  a good-fraction target: the share of windowed observations at or
  under T must reach ``target`` (0.95 for a p95 objective);
- **ratio** — "good events / (good + bad) >= target" over counters,
  e.g. submission success ratio >= 99%.

Each evaluation computes the **burn rate** on two sliding windows (fast
and slow — the standard multi-window error-budget method): burn rate =
bad fraction / error budget, where budget = 1 - target.  Burning 1.0
means eating the budget exactly as fast as allowed; an alert needs
*both* windows over the threshold, so a single bad scrape (fast spike,
slow still clean) cannot page, and a long-resolved incident (slow still
polluted, fast clean) auto-resolves.

Latency objectives additionally surface **exemplars**: the histogram's
captured trace ids from buckets above the threshold — the exact jobs
that blew the objective, one ``rai trace`` away from their waterfalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs.metrics import Exemplar, Histogram
from repro.obs.scrape import HistogramState, MetricsScraper

#: Kinds a spec may declare.
KINDS = ("latency", "ratio")

#: The burn-rate windows: the standard fast (page on a spike) and slow
#: (confirm it is sustained) pair.
FAST_WINDOW_SECONDS = 300.0
SLOW_WINDOW_SECONDS = 3600.0
#: Burn rate both windows must reach for a spec to count as burning.
BURN_RATE_THRESHOLD = 1.0
#: Exemplar trace ids a burning latency objective surfaces.
MAX_EXEMPLARS = 5

#: The stock queue-wait objective: p95 under 30 s.
QUEUE_WAIT_P95_SECONDS = 30.0
QUEUE_WAIT_TARGET = 0.95
#: The stock submission-success objective.
SUCCESS_TARGET = 0.99


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective, declaratively."""

    #: Stable identifier (alert names derive from it).
    name: str
    #: "latency" | "ratio".
    kind: str
    #: Good-outcome target in (0, 1), e.g. 0.95 → 5% error budget.
    target: float
    #: Human description for reports.
    description: str = ""
    #: latency: the (unlabelled) histogram's name.
    metric: Optional[str] = None
    #: latency: seconds bound an observation must stay at/under.
    threshold: Optional[float] = None
    #: ratio: counter selectors summed as good / bad events.  Each entry
    #: is ``"name"`` or ``"name{label_text}"``.
    good: Tuple[str, ...] = ()
    bad: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if self.kind == "latency":
            if self.metric is None or self.threshold is None:
                raise ValueError(
                    f"{self.kind} SLO {self.name!r} needs metric + threshold")
        if self.kind == "ratio" and not (self.good and self.bad):
            raise ValueError(
                f"ratio SLO {self.name!r} needs good and bad counters")

    @property
    def budget(self) -> float:
        """The error budget: tolerated bad fraction."""
        return 1.0 - self.target


def _parse_selector(selector: str) -> Tuple[str, Optional[str]]:
    """``"name{label_text}"`` → (name, label_text); bare name → (name, None).

    A None label sums every labelled variant of the counter.
    """
    if selector.endswith("}") and "{" in selector:
        name, _, rest = selector.partition("{")
        return name, rest[:-1]
    return selector, None


@dataclass
class WindowBurn:
    """Burn-rate arithmetic for one spec over one window."""

    window: float
    #: Seconds of history the baseline actually covered (< window early
    #: in a run).
    actual: float
    good: float
    bad: float
    #: bad / (good + bad); 0.0 with no data.
    bad_fraction: float
    #: bad_fraction / budget; 0.0 with no data.
    burn_rate: float

    @property
    def total(self) -> float:
        return self.good + self.bad

    @property
    def has_data(self) -> bool:
        return self.total > 0


@dataclass
class SloStatus:
    """One spec's judgment at one instant."""

    spec: SloSpec
    now: float
    fast: WindowBurn
    slow: WindowBurn
    #: True when BOTH windows burn at/over the engine threshold.
    burning: bool
    #: Latency objectives only: traced observations above the threshold.
    exemplars: List[Exemplar] = field(default_factory=list)

    @property
    def has_data(self) -> bool:
        return self.fast.has_data or self.slow.has_data

    @property
    def state(self) -> str:
        if not self.has_data:
            return "no-data"
        return "burning" if self.burning else "ok"


class SloEngine:
    """Evaluates a set of :class:`SloSpec` against scraper history."""

    def __init__(self, scraper: MetricsScraper,
                 specs: Sequence[SloSpec] = ()):
        self.scraper = scraper
        self.specs: List[SloSpec] = list(specs)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, now: Optional[float] = None,
                 scrape: bool = True) -> List[SloStatus]:
        """Judge every spec; optionally takes a fresh snapshot first.

        ``scrape=False`` evaluates against existing history only (the
        alert manager calls it this way right after the scrape loop's
        own capture, avoiding double snapshots).
        """
        if scrape:
            self.scraper.scrape_now()
        if now is None:
            now = self.scraper.clock()
        return [self._evaluate_spec(spec, now) for spec in self.specs]

    def _evaluate_spec(self, spec: SloSpec, now: float) -> SloStatus:
        measure = (self._latency_window if spec.kind == "latency"
                   else self._ratio_window)
        fast = self._burn(spec, now, FAST_WINDOW_SECONDS, measure)
        slow = self._burn(spec, now, SLOW_WINDOW_SECONDS, measure)
        burning = (fast.has_data and slow.has_data
                   and fast.burn_rate >= BURN_RATE_THRESHOLD
                   and slow.burn_rate >= BURN_RATE_THRESHOLD)
        exemplars: List[Exemplar] = []
        if spec.kind == "latency" and burning:
            exemplars = self._exemplars(spec, now)
        return SloStatus(spec=spec, now=now, fast=fast, slow=slow,
                         burning=burning, exemplars=exemplars)

    def _burn(self, spec: SloSpec, now: float, window: float,
              measure: Callable) -> WindowBurn:
        good, bad, actual = measure(spec, now, window)
        total = good + bad
        bad_fraction = bad / total if total > 0 else 0.0
        burn_rate = bad_fraction / spec.budget if total > 0 else 0.0
        return WindowBurn(window=window, actual=actual, good=good, bad=bad,
                          bad_fraction=bad_fraction, burn_rate=burn_rate)

    # -- per-kind good/bad splits --------------------------------------------

    def _window_span(self, now: float, window: float) -> float:
        base = self.scraper.baseline_for(now, window)
        return now - base.time if base is not None else 0.0

    def _latency_window(self, spec: SloSpec, now: float,
                        window: float) -> Tuple[float, float, float]:
        delta = self.scraper.histogram_delta(spec.metric, now, window)
        actual = self._window_span(now, window)
        if delta is None or delta.count <= 0:
            return 0.0, 0.0, actual
        good = self._count_at_or_under(delta, spec.threshold)
        return float(good), float(delta.count - good), actual

    @staticmethod
    def _count_at_or_under(delta: HistogramState, threshold: float) -> int:
        """Observations provably <= threshold (bucket bound <= threshold).

        When the threshold falls inside a bucket, that bucket counts as
        bad — the conservative reading, since any of its observations
        may exceed the bound.  Align thresholds with bucket bounds for
        exact accounting.
        """
        good = 0
        for bound, count in zip(delta.bounds, delta.bucket_counts):
            if bound <= threshold:
                good += count
            else:
                break
        return good

    def _ratio_window(self, spec: SloSpec, now: float,
                      window: float) -> Tuple[float, float, float]:
        actual = self._window_span(now, window)
        good = sum(self._counter_delta(sel, now, window)
                   for sel in spec.good)
        bad = sum(self._counter_delta(sel, now, window) for sel in spec.bad)
        return good, bad, actual

    def _counter_delta(self, selector: str, now: float,
                       window: float) -> float:
        name, label = _parse_selector(selector)
        if label is not None:
            return self.scraper.counter_delta(name, now, window, label=label)
        latest = self.scraper.latest()
        base = self.scraper.baseline_for(now, window)
        if latest is None:
            return 0.0
        end = latest.counter_total(name)
        start = base.counter_total(name) if base is not None else 0.0
        return max(0.0, end - start)

    # -- exemplars ------------------------------------------------------------

    def _exemplars(self, spec: SloSpec, now: float) -> List[Exemplar]:
        metric = self.scraper.registry.get(spec.metric)
        if not isinstance(metric, Histogram):
            return []
        since = now - SLOW_WINDOW_SECONDS
        exemplars = metric.exemplars_above(spec.threshold, since=since)
        exemplars.sort(key=lambda e: e.time, reverse=True)
        return exemplars[:MAX_EXEMPLARS]


def default_slos() -> List[SloSpec]:
    """The stock objectives every deployment starts with.

    Mirrors the paper's operational pain points: queue responsiveness
    (p95 queue wait under 30 s — students polling ``rai`` expect
    interactive turnaround) and submission success ratio (a submission
    system that loses or fails jobs burns instructor trust fastest).
    """
    return [
        SloSpec(
            name="queue-wait-p95",
            kind="latency",
            metric="sched_queue_wait_seconds",
            threshold=QUEUE_WAIT_P95_SECONDS,
            target=QUEUE_WAIT_TARGET,
            description=f"p95 queue wait < {QUEUE_WAIT_P95_SECONDS:g}s",
        ),
        SloSpec(
            name="submission-success",
            kind="ratio",
            good=("jobs_finished{status=succeeded}",),
            bad=("jobs_finished{status=failed}", "dead_letters_drained"),
            target=SUCCESS_TARGET,
            description=f"submission success ratio >= {SUCCESS_TARGET:.0%}",
        ),
    ]
