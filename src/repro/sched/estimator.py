"""Per-team runtime estimation for shortest-expected-job-first ordering."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.errors import ReproError


class RuntimeEstimator:
    """EWMA of observed per-team service times, seeded from history.

    ``history_fn(key)`` — typically a docdb query over past submissions —
    supplies prior observations the first time a key is seen, so a system
    restarted mid-semester does not forget that one team's jobs take ten
    minutes while another's take ten seconds.
    """

    def __init__(self,
                 history_fn: Optional[Callable[[str], Iterable[float]]] = None,
                 default_seconds: float = 30.0,
                 alpha: float = 0.3,
                 history_limit: int = 20):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if default_seconds <= 0:
            raise ValueError("default_seconds must be > 0")
        self.history_fn = history_fn
        self.default_seconds = default_seconds
        self.alpha = alpha
        self.history_limit = history_limit
        self._estimates: Dict[str, float] = {}
        self._seeded: set = set()

    def _seed(self, key: str) -> None:
        self._seeded.add(key)
        if self.history_fn is None:
            return
        try:
            samples = list(self.history_fn(key))[-self.history_limit:]
        except (ReproError, KeyError, TypeError, ValueError):
            # The store refused the query, or a history row is malformed:
            # start from the default.  Anything else is a bug; let it out.
            return
        estimate = None
        for sample in samples:
            try:
                value = float(sample)
            except (TypeError, ValueError):
                continue
            if value <= 0:
                continue
            estimate = value if estimate is None else \
                (1 - self.alpha) * estimate + self.alpha * value
        if estimate is not None:
            self._estimates[key] = estimate

    def expected(self, key: str) -> float:
        """Expected service seconds for ``key``'s next job."""
        if key not in self._seeded:
            self._seed(key)
        return self._estimates.get(key, self.default_seconds)

    def observe(self, key: str, seconds: float) -> None:
        """Fold one completed job's service time into the estimate."""
        if seconds < 0:
            return
        if key not in self._seeded:
            self._seed(key)
        current = self._estimates.get(key)
        if current is None:
            self._estimates[key] = seconds
        else:
            self._estimates[key] = \
                (1 - self.alpha) * current + self.alpha * seconds

    def known_keys(self) -> list:
        return sorted(self._estimates)
