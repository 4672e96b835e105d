"""Per-team runtime estimation for shortest-expected-job-first ordering."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.errors import ReproError

#: Expected service seconds of a team with no history.
DEFAULT_SECONDS = 30.0
#: EWMA blend weight of a new observation.
ALPHA = 0.3
#: Newest history samples a first sighting is seeded from.
HISTORY_LIMIT = 20


class RuntimeEstimator:
    """EWMA of observed per-team service times, seeded from history.

    ``history_fn(key)`` — typically a docdb query over past submissions —
    supplies prior observations the first time a key is seen, so a system
    restarted mid-semester does not forget that one team's jobs take ten
    minutes while another's take ten seconds.
    """

    def __init__(self, history_fn: Optional[
            Callable[[str], Iterable[float]]] = None):
        self.history_fn = history_fn
        self._estimates: Dict[str, float] = {}
        self._seeded: set = set()

    def _seed(self, key: str) -> None:
        self._seeded.add(key)
        if self.history_fn is None:
            return
        try:
            samples = list(self.history_fn(key))[-HISTORY_LIMIT:]
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
                (1 - ALPHA) * estimate + ALPHA * value
        if estimate is not None:
            self._estimates[key] = estimate

    def expected(self, key: str) -> float:
        """Expected service seconds for ``key``'s next job."""
        if key not in self._seeded:
            self._seed(key)
        return self._estimates.get(key, DEFAULT_SECONDS)

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
                (1 - ALPHA) * current + ALPHA * seconds
