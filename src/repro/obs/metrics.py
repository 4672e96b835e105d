"""A unified metrics registry: counters, gauges, histograms, labels.

The registry is the one home of the deployment's counts: every series is
``(name, labels)``-keyed, and :class:`CounterGroup` is its one name-keyed
view (the monitor's unprefixed counters, the broker's ``broker_`` ones).
Every series written has a reader outside the tests — the health report,
the SLOs, ``rai top`` or the benchmark; a tier-1 guard holds it so.

Three instrument kinds, Prometheus-shaped:

- :class:`Counter` — monotonically increasing (``inc`` only);
- :class:`Gauge` — *callback-backed*, so the metrics scraper and the
  operator report read live system state (queue depth, in-flight
  messages) from one definition;
- :class:`Histogram` — bucketed observations with count/sum/min/max and
  an interpolated percentile estimate (latency distributions).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Every histogram's bucket bounds (simulated seconds): sub-second client
#: work up to the 1-hour job deadline.
BUCKETS = (0.1, 0.5, 1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0,
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
                f"{{{label_text}}} {self._describe()}>")

    def _describe(self) -> str:  # pragma: no cover - repr helper
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

    def _describe(self) -> str:
        return f"{self._value:g}"


class Gauge(Metric):
    """A value computed by a callback (0.0 until one is registered)."""

    __slots__ = ("fn",)

    def __init__(self, name: str, labels: dict,
                 fn: Optional[Callable[[], float]] = None):
        super().__init__(name, labels)
        self.fn = fn

    @property
    def value(self) -> float:
        return float(self.fn()) if self.fn is not None else 0.0

    def _describe(self) -> str:
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

    def __repr__(self):
        return (f"<Exemplar {self.trace_id} value={self.value:g} "
                f"t={self.time:g}>")


class Histogram(Metric):
    """Bucketed observations (cumulative counts, Prometheus-style)."""

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max",
                 "exemplars")

    def __init__(self, name: str, labels: dict):
        super().__init__(name, labels)
        self.buckets = BUCKETS + (math.inf,)
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

    def _describe(self) -> str:
        return f"n={self.count}"


class MetricsRegistry:
    """All metric series of one deployment, keyed by (name, labels).  A
    name's series share one kind and one set of label keys; any other
    raises ``TypeError``."""

    def __init__(self):
        self._metrics: "Dict[Tuple[str, LabelsKey], Metric]" = {}
        #: name → the kind and label keys its first series was registered
        #: with: a retired or misspelt keyword must not mint a parallel
        #: series.
        self._shapes: Dict[str, tuple] = {}

    # -- instrument factories ------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None,
              **labels) -> Gauge:
        gauge = self._get_or_create(Gauge, name, labels, fn=fn)
        if fn is not None and gauge.fn is None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    def _get_or_create(self, cls, name: str, labels: dict, **kwargs):
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is not None and type(metric) is cls:
            return metric
        kind, names = self._shapes.setdefault(name, (cls, frozenset(labels)))
        if kind is not cls:
            raise TypeError(
                f"metric {name!r}{labels or ''} is a "
                f"{kind.__name__}, not a {cls.__name__}")
        if names != labels.keys():
            raise TypeError(f"metric {name!r} takes labels {sorted(names)}, "
                            f"not {sorted(labels)}")
        metric = self._metrics[key] = cls(name, labels, **kwargs)
        return metric

    # -- queries ------------------------------------------------------------

    def get(self, name: str, **labels) -> Optional[Metric]:
        return self._metrics.get((name, _labels_key(labels)))

    def value(self, name: str, **labels) -> float:
        """A counter's or gauge's current value (0.0 when absent)."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0.0
        if not isinstance(metric, (Counter, Gauge)):
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}; "
                            f"value() reads counters and gauges")
        return metric.value

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())


class CounterGroup:
    """A name-keyed view of a registry's counters under ``prefix + name``.

    The monitor (no prefix) and the broker (``broker_``) count through
    one each: ``incr`` on the job path, ``get`` / ``as_dict`` for readers.
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
        counter.inc(amount)

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
