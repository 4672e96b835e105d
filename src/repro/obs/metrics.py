"""A unified metrics registry: counters, gauges, histograms, labels.

Before this module the repro's operational counters were islands —
``Collection.planner_stats`` dicts, broker ``Counter`` objects, monitor
counters — with no shared namespace, no labels, and no export path.  The
registry is the single home: every series is ``(name, labels)``-keyed,
snapshotable as JSON, and readable through thin legacy views
(:class:`CounterGroup`, the planner-stats mapping) so existing accessors
keep working unchanged.

Three instrument kinds, Prometheus-shaped:

- :class:`Counter` — monotonically increasing (``inc`` only);
- :class:`Gauge` — settable up/down, optionally *callback-backed* so the
  metrics scraper and the operator report read live system state
  (queue depth, in-flight messages) from one definition;
- :class:`Histogram` — bucketed observations with count/sum/min/max and
  an interpolated percentile estimate (latency distributions).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Default latency buckets (simulated seconds): sub-second client work up
#: to the 1-hour job deadline.
DEFAULT_BUCKETS = (0.1, 0.5, 1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0,
                   600.0, 1800.0, 3600.0)

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: dict) -> LabelsKey:
    # The overwhelmingly common case — unlabelled counters incremented on
    # the broker/worker hot paths — must not pay for a genexpr + sort.
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Common identity for all instrument kinds."""

    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = dict(labels)

    def __repr__(self):
        label_text = ",".join(f"{k}={v}" for k, v in self.labels.items())
        return (f"<{type(self).__name__} {self.name}"
                f"{{{label_text}}} {self.describe()}>")

    def describe(self) -> str:  # pragma: no cover - repr helper
        return ""


class Counter(Metric):
    """Monotonically increasing value."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: dict):
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def describe(self) -> str:
        return f"{self._value:g}"


class Gauge(Metric):
    """Settable value, optionally computed by a callback."""

    __slots__ = ("_value", "fn")

    def __init__(self, name: str, labels: dict,
                 fn: Optional[Callable[[], float]] = None):
        super().__init__(name, labels)
        self._value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        if self.fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self.fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return float(self.fn()) if self.fn is not None else self._value

    def describe(self) -> str:
        return f"{self.value:g}"


class Exemplar:
    """One concrete observation pinned to a histogram bucket.

    The metric→trace link: a latency histogram can say "p95 blew the
    objective", and the exemplar names an actual ``trace_id`` that
    landed in the offending bucket — ``rai trace`` then shows *why*
    that job was slow.  Each bucket keeps only its latest exemplar, so
    the memory cost is one small record per bucket.
    """

    __slots__ = ("trace_id", "value", "time")

    def __init__(self, trace_id: str, value: float, time: float):
        self.trace_id = trace_id
        self.value = value
        self.time = time

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "value": self.value,
                "t": self.time}

    def __repr__(self):
        return (f"<Exemplar {self.trace_id} value={self.value:g} "
                f"t={self.time:g}>")


class Histogram(Metric):
    """Bucketed observations (cumulative counts, Prometheus-style)."""

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max",
                 "exemplars")

    def __init__(self, name: str, labels: dict,
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(name, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds + (math.inf,)
        self.bucket_counts = [0] * len(self.buckets)
        #: Latest :class:`Exemplar` per bucket (None until a traced
        #: observation lands there).
        self.exemplars: List[Optional[Exemplar]] = [None] * len(self.buckets)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float, trace_id: Optional[str] = None,
                at: float = 0.0) -> None:
        if type(value) is not float:  # normalize ints / numpy scalars
            value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # First bucket with ``value <= bound``: bisect over the sorted
        # bounds instead of a linear scan (the last bound is +inf, so the
        # index is always valid).
        i = bisect_left(self.buckets, value)
        self.bucket_counts[i] += 1
        if trace_id is not None:
            self.exemplars[i] = Exemplar(trace_id, value, at)

    @property
    def value(self) -> float:
        """The running mean (a histogram's one-number summary)."""
        return self.sum / self.count if self.count else math.nan

    def exemplars_above(self, threshold: float,
                        since: Optional[float] = None) -> List[Exemplar]:
        """Exemplars from buckets whose entire range exceeds ``threshold``.

        The objective-violation query: for "p95 < 30 s", the exemplars
        of every bucket with lower bound >= 30 s name jobs that
        individually blew the objective.  ``since`` drops exemplars
        captured before a window start.
        """
        out: List[Exemplar] = []
        lower = 0.0
        for bound, exemplar in zip(self.buckets, self.exemplars):
            if lower >= threshold and exemplar is not None:
                if since is None or exemplar.time >= since:
                    out.append(exemplar)
            lower = bound
        return out

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile via linear in-bucket interpolation.

        An empty histogram reports 0.0 — the identity for "no latency
        observed yet" — so report code can format the result without a
        NaN guard at every call site.
        """
        if not self.count:
            return 0.0
        target = self.count * q / 100.0
        cumulative = 0
        lower = self.min if math.isfinite(self.min) else 0.0
        for i, bound in enumerate(self.buckets):
            in_bucket = self.bucket_counts[i]
            if cumulative + in_bucket >= target:
                upper = bound if math.isfinite(bound) else self.max
                if in_bucket == 0:
                    return upper
                frac = (target - cumulative) / in_bucket
                return lower + (upper - lower) * min(1.0, max(0.0, frac))
            cumulative += in_bucket
            lower = bound
        return self.max  # pragma: no cover - target <= count always hits

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.value if self.count else None,
            "p50": self.percentile(50) if self.count else None,
            "p95": self.percentile(95) if self.count else None,
            "buckets": {
                ("inf" if math.isinf(b) else f"{b:g}"): c
                for b, c in zip(self.buckets, self.bucket_counts)},
            "exemplars": [e.to_dict() for e in self.exemplars
                          if e is not None],
        }

    def describe(self) -> str:
        return f"n={self.count}"


class MetricsRegistry:
    """All metric series of one deployment, keyed by (name, labels)."""

    def __init__(self):
        self._metrics: "Dict[Tuple[str, LabelsKey], Metric]" = {}

    # -- instrument factories ------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None,
              **labels) -> Gauge:
        gauge = self._get_or_create(Gauge, name, labels, fn=fn)
        if fn is not None and gauge.fn is None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str,
                  buckets: Optional[Tuple[float, ...]] = None,
                  **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels,
                                   buckets=buckets or DEFAULT_BUCKETS)

    def _get_or_create(self, cls, name: str, labels: dict, **kwargs):
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, labels, **kwargs)
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r}{labels or ''} is a "
                f"{type(metric).__name__}, not a {cls.__name__}")
        return metric

    # -- queries ------------------------------------------------------------

    def get(self, name: str, **labels) -> Optional[Metric]:
        return self._metrics.get((name, _labels_key(labels)))

    def value(self, name: str, **labels) -> float:
        metric = self.get(name, **labels)
        return metric.value if metric is not None else 0.0

    def series(self, name: str) -> List[Metric]:
        """Every labelled variant of ``name``."""
        return [m for (n, _), m in self._metrics.items() if n == name]

    def total(self, name: str) -> float:
        """Sum of ``name`` across all label sets."""
        return sum(m.value for m in self.series(name))

    def gauges(self) -> Iterator[Gauge]:
        return (m for m in self._metrics.values() if isinstance(m, Gauge))

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe dump: ``{kind: {name: {label_text: value}}}``."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self._metrics.values():
            label_text = ",".join(
                f"{k}={v}" for k, v in sorted(metric.labels.items())) or ""
            if isinstance(metric, Counter):
                out["counters"].setdefault(metric.name, {})[label_text] = \
                    metric.value
            elif isinstance(metric, Histogram):
                out["histograms"].setdefault(metric.name, {})[label_text] = \
                    metric.to_dict()
            else:
                out["gauges"].setdefault(metric.name, {})[label_text] = \
                    metric.value
        return out


class CounterGroup:
    """Legacy ``sim.monitor.Counter``-shaped view over a registry.

    Components that historically owned a private ``Counter`` (the broker,
    the system monitor) keep their ``incr``/``get``/``as_dict`` surface;
    the data now lives in the shared registry under ``prefix + name``.
    """

    __slots__ = ("registry", "prefix", "_cache")

    def __init__(self, registry: MetricsRegistry, prefix: str = ""):
        self.registry = registry
        self.prefix = prefix
        #: name → Counter handle.  ``incr`` is called on broker/worker hot
        #: paths with a tiny set of names; resolving the registry key
        #: (labels tuple + dict lookup + type check) every time tripled
        #: its cost.  The registry owns the data — this only caches the
        #: object identity, which is stable for a (name, labels) key.
        self._cache: Dict[str, Counter] = {}

    def incr(self, name: str, amount: float = 1) -> None:
        counter = self._cache.get(name)
        if counter is None:
            counter = self._cache[name] = \
                self.registry.counter(self.prefix + name)
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        counter._value += amount

    def get(self, name: str) -> float:
        return self.registry.value(self.prefix + name)

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (name, labels_key), metric in self.registry._metrics.items():
            if labels_key or not isinstance(metric, Counter):
                continue
            if name.startswith(self.prefix):
                out[name[len(self.prefix):]] = metric.value
        return out
