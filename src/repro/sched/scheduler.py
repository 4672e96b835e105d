"""Deficit-round-robin dequeue with deadline boost and SJF tie-breaks."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import merge
from typing import Callable, Deque, Dict, Iterable, Iterator, Optional, \
    Tuple

from repro.obs.events import EventType
from repro.sched.estimator import RuntimeEstimator

#: SJF cost multiplier of a job expected to hit the build cache.
HIT_COST_FACTOR = 0.35


@dataclass(frozen=True)
class SchedulerPolicy:
    """Knobs for :class:`JobScheduler`.

    Frozen: a queued message's band is decided at enqueue, so a deadline
    moved under a queued message would silently mis-band it.
    """

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


#: One queued message: its place in the channel's global order, and it.
Entry = Tuple[int, object]


class TeamQueues:
    """A scheduled channel's queued messages, grouped the way
    :meth:`JobScheduler.select` reads them.

    Two bands — messages submitted inside the deadline window, and the
    rest — each map a fair-share key to that team's FIFO of
    ``(seq, message)`` entries, and a team leaves its band when its FIFO
    empties.  ``seq`` is the message's place in the channel's global
    queue order, the next number at each put or requeue, so every team
    FIFO is sorted by it and a team head's ``seq`` is the FIFO tie-break
    across teams.  A message's key and band are computed once, at
    enqueue.

    Stands in for the ``deque`` a plain channel holds: ``append``,
    ``len``, iteration in global order, ``clear`` and ``extend``; plus
    :meth:`pop` of a team head and :meth:`remove` by message id.
    """

    __slots__ = ("boosted", "normal", "_key", "_is_boosted", "_where",
                 "_len", "_seq")

    def __init__(self, key: Callable[[object], str],
                 is_boosted: Callable[[object], bool],
                 messages: Iterable):
        self.boosted: Dict[str, Deque[Entry]] = {}
        self.normal: Dict[str, Deque[Entry]] = {}
        self._key = key
        self._is_boosted = is_boosted
        #: message id -> (band, key) of its latest enqueue.
        self._where: Dict[str, Tuple[Dict[str, Deque[Entry]], str]] = {}
        self._len = self._seq = 0
        self.extend(messages)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator:
        """The queued messages in global queue order."""
        for _, msg in merge(*self.boosted.values(), *self.normal.values()):
            yield msg

    def append(self, msg) -> None:
        """Queue ``msg`` at the back."""
        key = self._key(msg)
        band = self.boosted if self._is_boosted(msg) else self.normal
        team = band.get(key)
        if team is None:
            team = band[key] = deque()
        self._seq += 1
        team.append((self._seq, msg))
        self._where[msg.id] = (band, key)
        self._len += 1

    def extend(self, messages: Iterable) -> None:
        for msg in messages:
            self.append(msg)

    def clear(self) -> None:
        self.boosted.clear()
        self.normal.clear()
        self._where.clear()
        self._len = 0

    def pop(self, key: Optional[str] = None):
        """Remove and return the head of team ``key`` in the active band
        (the deadline band while it holds anything); ``None`` takes the
        band's first team, the only one when one message is queued."""
        band = self.boosted or self.normal
        if key is None:
            key = next(iter(band))
        team = band[key]
        msg = team.popleft()[1]
        if not team:
            del band[key]
        self._where.pop(msg.id, None)
        self._len -= 1
        return msg

    def remove(self, message_id: str):
        """Remove and return the queued message ``message_id``, or None.

        The id map finds its team; a team head (every replayed live
        delivery is one) leaves in O(1).  An id queued twice (a stale
        sweep's copy beside its requeued original) loses its map entry
        with the first pop and is found by a scan of every team.
        """
        where = self._where.get(message_id)
        teams = [where] if where is not None else \
            [(band, key) for band in (self.boosted, self.normal)
             for key in band]
        for band, key in teams:
            team = band[key]
            for i, (_, msg) in enumerate(team):
                if msg.id == message_id:
                    del team[i]
                    if not team:
                        del band[key]
                    if where is not None:
                        del self._where[message_id]
                    self._len -= 1
                    return msg
        return None


class JobScheduler:
    """Per-team fair-share dequeue policy for a broker channel.

    Installed by :meth:`repro.broker.topic.Channel.set_scheduler`; the
    channel holds its queue as this scheduler's :meth:`new_queue`, calls
    :meth:`select` to pick which team's head dequeues next and
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

    def new_queue(self, messages: Iterable) -> TeamQueues:
        """The queue a channel under this scheduler holds ``messages`` in
        (the policy is frozen, so the band it computes cannot go stale)."""
        return TeamQueues(self._key, self._boosted, messages)

    def select(self, queue: TeamQueues) -> str:
        """Key of the team whose head dequeues next from ``queue``.

        Reads only the team heads of the active band, so it costs
        O(teams), not O(backlog).  DRR still runs *within* the band, so a
        deadline storm by one team cannot starve the others' deadline
        jobs.
        """
        # 1. Deadline band: the boosted teams while there are any.
        band = queue.boosted or queue.normal
        if len(queue) <= 1 or len(band) == 1:
            return next(iter(band))

        # 2. DRR: accrue quantum until some team's credit covers its
        #    expected cost.  Bounded: every round raises all deficits.
        #    Costs stay live: the estimator and the hit predictor move.
        deficits = self._deficits
        cap = self.policy.deficit_cap_seconds
        costs = {key: self._cost(key, team[0][1])
                 for key, team in band.items()}
        eligible = [k for k in band if deficits.get(k, 0.0) >= costs[k]]
        while not eligible:
            for key in band:
                deficits[key] = min(cap,
                                    deficits.get(key, 0.0)
                                    + self.policy.quantum_seconds)
            eligible = [k for k in band if deficits[k] >= costs[k]]

        # 3./4. SJF among eligible teams, FIFO tie-break on the heads'
        #       queue order, then FIFO within the winning team.
        winner = min(eligible, key=lambda k: (costs[k], band[k][0][0]))
        deficits[winner] = deficits.get(winner, 0.0) - costs[winner]

        # Forget teams no longer queued at all (not merely outside the
        # band) so a finished team's stale credit does not linger.
        boosted, normal = queue.boosted, queue.normal
        for key in list(deficits):
            if key not in boosted and key not in normal:
                del deficits[key]

        return winner

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
            self.events.emit(EventType.SCHED_DISPATCH, at=now,
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
