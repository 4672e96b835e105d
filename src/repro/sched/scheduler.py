"""Deficit-round-robin dequeue with deadline boost and SJF tie-breaks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.sched.estimator import RuntimeEstimator

#: SJF cost multiplier of a job expected to hit the build cache.
HIT_COST_FACTOR = 0.35


@dataclass
class SchedulerPolicy:
    """Knobs for :class:`JobScheduler`."""

    #: Executor-seconds credited to every queued team per DRR round.
    quantum_seconds: float = 5.0
    #: Deficit ceiling — an absent-but-queued team cannot bank unbounded
    #: credit and then monopolise the executors when it returns.
    deficit_cap_seconds: float = 120.0
    #: Course deadline on the simulation clock (None disables the boost).
    deadline_at: Optional[float] = None
    #: Jobs *submitted* within this many seconds before the deadline form
    #: the priority band that dequeues first.
    deadline_window_seconds: float = 24 * 3600.0
    #: Queue-wait EWMA blend weight (autoscaler signal).
    wait_ewma_alpha: float = 0.2
    #: Queue-wait EWMA half-life: with no dispatches for this many
    #: seconds the signal halves, so a drained storm stops demanding
    #: capacity.
    wait_ewma_half_life: float = 600.0

    def __post_init__(self):
        if self.quantum_seconds <= 0:
            raise ValueError("quantum_seconds must be > 0")
        if self.deficit_cap_seconds <= 0:
            raise ValueError("deficit_cap_seconds must be > 0")
        if not 0.0 < self.wait_ewma_alpha <= 1.0:
            raise ValueError("wait_ewma_alpha must be in (0, 1]")
        if self.wait_ewma_half_life <= 0:
            raise ValueError("wait_ewma_half_life must be > 0")


class JobScheduler:
    """Per-team fair-share dequeue policy for a broker channel.

    Plugged into :attr:`repro.broker.topic.Channel.scheduler`; the channel
    calls :meth:`select` to pick which queued message dequeues next and
    :meth:`note_dispatch` as each message is claimed.

    Ordering, most- to least-significant:

    1. **Deadline band** — messages submitted inside the deadline window
       dequeue before everything else.
    2. **Deficit round robin within the band** — each team present in the
       candidate set accrues ``quantum_seconds`` of credit per round; a
       team is eligible once its credit covers its expected job cost, and
       dispatch debits the credit.  One team flooding the queue gains
       nothing: its credit accrues at the same rate as everyone else's.
    3. **Shortest expected job first** — among simultaneously eligible
       teams, the one whose jobs historically finish fastest goes first.
    4. FIFO within a team.
    """

    def __init__(self, clock, policy: Optional[SchedulerPolicy] = None,
                 estimator: Optional[RuntimeEstimator] = None,
                 metrics=None, events=None,
                 hit_predictor=None):
        self.clock = clock
        self.policy = policy or SchedulerPolicy()
        self.estimator = estimator or RuntimeEstimator()
        self.metrics = metrics
        #: Optional :class:`~repro.obs.events.EventLog` for dispatch records.
        self.events = events
        #: Optional ``predictor(msg) -> bool``: True when the job is
        #: expected to hit the build-artifact cache (its source tree has
        #: built before), shrinking its SJF cost by :data:`HIT_COST_FACTOR`.
        self.hit_predictor = hit_predictor
        self._deficits: Dict[str, float] = {}
        self.total_dispatched = 0
        self.total_boosted = 0
        self._wait_ewma = 0.0
        self._wait_updated_at: Optional[float] = None
        self._team_wait_sum: Dict[str, float] = {}
        self._team_wait_count: Dict[str, int] = {}

    # -- message inspection ---------------------------------------------

    @staticmethod
    def _key(msg) -> str:
        """Fair-share key for a message: team, else username, else ''.

        Defensive against junk bodies (tests flood channels with bare
        dicts and non-dict payloads); unkeyable messages share one
        anonymous bucket, which degrades to FIFO — never a crash.
        """
        body = getattr(msg, "body", None)
        if not isinstance(body, dict):
            return ""
        key = body.get("team") or body.get("username") or ""
        return str(key)

    def _boosted(self, msg) -> bool:
        deadline = self.policy.deadline_at
        if deadline is None:
            return False
        ts = getattr(msg, "timestamp", None)
        if ts is None:
            return False
        return deadline - self.policy.deadline_window_seconds <= ts <= deadline

    def _cost(self, key: str, msg=None) -> float:
        expected = self.estimator.expected(key)
        if msg is not None and self.hit_predictor is not None \
                and self.hit_predictor(msg):
            expected *= HIT_COST_FACTOR
        return min(expected, self.policy.deficit_cap_seconds)

    # -- the channel-facing policy --------------------------------------

    def select(self, items: Sequence) -> int:
        """Index into ``items`` of the message to dequeue next."""
        if len(items) <= 1:
            return 0

        # 1. Deadline band: restrict candidates to boosted messages when
        #    any exist.  DRR still runs *within* the band, so a deadline
        #    storm by one team cannot starve the others' deadline jobs.
        candidates: List[int] = [i for i, msg in enumerate(items)
                                 if self._boosted(msg)]
        if not candidates:
            candidates = list(range(len(items)))

        # First queued index per team, in FIFO discovery order.
        first_index: Dict[str, int] = {}
        for i in candidates:
            key = self._key(items[i])
            if key not in first_index:
                first_index[key] = i
        if len(first_index) == 1:
            return next(iter(first_index.values()))

        # 2. DRR: accrue quantum until some team's credit covers its
        #    expected cost.  Bounded: every round raises all deficits.
        teams = list(first_index)
        deficits = self._deficits
        cap = self.policy.deficit_cap_seconds
        costs = {key: self._cost(key, items[first_index[key]])
                 for key in teams}
        eligible = [k for k in teams if deficits.get(k, 0.0) >= costs[k]]
        while not eligible:
            for key in teams:
                deficits[key] = min(cap,
                                    deficits.get(key, 0.0)
                                    + self.policy.quantum_seconds)
            eligible = [k for k in teams if deficits[k] >= costs[k]]

        # 3./4. SJF among eligible teams, FIFO tie-break, then FIFO
        #       within the winning team.
        winner = min(eligible, key=lambda k: (costs[k], first_index[k]))
        deficits[winner] = deficits.get(winner, 0.0) - costs[winner]

        # Forget teams no longer queued at all (not merely outside the
        # band) so a finished team's stale credit does not linger.
        queued_keys = {self._key(msg) for msg in items}
        for key in list(deficits):
            if key not in queued_keys:
                del deficits[key]

        return first_index[winner]

    # -- dispatch/completion observation --------------------------------

    def note_dispatch(self, msg) -> None:
        """Observe one claimed message: queue-wait EWMA + per-team waits."""
        self.total_dispatched += 1
        if self._boosted(msg):
            self.total_boosted += 1
        ts = getattr(msg, "timestamp", None)
        if ts is None:
            return
        now = self.clock()
        wait = max(0.0, now - ts)
        alpha = self.policy.wait_ewma_alpha
        self._wait_ewma = (1 - alpha) * self._decayed_ewma(now) + alpha * wait
        self._wait_updated_at = now
        key = self._key(msg)
        self._team_wait_sum[key] = self._team_wait_sum.get(key, 0.0) + wait
        self._team_wait_count[key] = self._team_wait_count.get(key, 0) + 1
        headers = getattr(msg, "headers", None) or {}
        trace_id = headers.get("trace_id")
        if self.metrics is not None:
            # trace_id pins an exemplar to the wait's bucket: a burned
            # queue-wait SLO names the exact job that waited this long.
            self.metrics.histogram("sched_queue_wait_seconds").observe(
                wait, trace_id=trace_id, at=now)
        if self.events is not None:
            body = getattr(msg, "body", None)
            body = body if isinstance(body, dict) else {}
            self.events.emit("sched.dispatch", at=now,
                             trace_id=trace_id,
                             span_id=headers.get("span_id"),
                             job_id=body.get("job_id"), team=key or None,
                             wait=round(wait, 6),
                             boosted=self._boosted(msg))

    def note_completion(self, key: str, service_seconds: float) -> None:
        """Feed a finished job's service time back into the estimator."""
        self.estimator.observe(key, service_seconds)

    # -- signals ---------------------------------------------------------

    def _decayed_ewma(self, now: float) -> float:
        if self._wait_updated_at is None:
            return 0.0
        idle = max(0.0, now - self._wait_updated_at)
        return self._wait_ewma * \
            0.5 ** (idle / self.policy.wait_ewma_half_life)

    def wait_ewma(self) -> float:
        """Queue-wait EWMA, decayed to the current sim time.

        The autoscaler's scale-out signal: high while dispatches are
        waiting long, falling back to zero once the queue drains.
        """
        return self._decayed_ewma(self.clock())

    def wait_stats(self) -> dict:
        """Per-team and global mean queue waits (fairness evidence)."""
        teams = {}
        total_sum, total_count = 0.0, 0
        for key, wsum in self._team_wait_sum.items():
            count = self._team_wait_count.get(key, 0)
            teams[key] = {"mean_wait": wsum / count if count else 0.0,
                          "dispatched": count}
            total_sum += wsum
            total_count += count
        return {
            "teams": teams,
            "global_mean_wait": total_sum / total_count if total_count else 0.0,
            "dispatched": self.total_dispatched,
            "boosted": self.total_boosted,
            "wait_ewma": self.wait_ewma(),
        }
