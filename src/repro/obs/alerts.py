"""The deployment's two service-level objectives and its alerts.

The paper's staff answered two questions by watching the deployment —
"is the queue backed up?" and "are submissions succeeding?" (§VII).
The :class:`AlertManager` answers both from its
:class:`~repro.obs.scrape.MetricsScraper`'s history:

- **queue-wait-p95** — the share of windowed ``sched_queue_wait_seconds``
  observations in buckets bounded at or under 30 s must reach 95 %
  (a p95 objective; students polling ``rai`` expect interactive
  turnaround);
- **submission-success** — succeeded jobs over succeeded + failed +
  drained dead letters must reach 99 % (a system that loses or fails
  jobs burns instructor trust fastest).

Each judgment computes the **burn rate** on two sliding windows (fast
and slow — the standard multi-window error-budget method): burn rate =
bad fraction / error budget, where budget = 1 - target.  Burning 1.0
means eating the budget exactly as fast as allowed; an objective burns
only when *both* windows are at or over 1.0, so a single bad scrape
(fast spike, slow still clean) cannot page, and a long-resolved
incident (slow still polluted, fast clean) auto-resolves.  A burning
queue-wait objective also names its **exemplars**: the histogram's
captured trace ids from buckets above 30 s — the exact jobs that blew
the objective, one ``rai trace`` away from their waterfalls.

A burning objective fires ``slo:<name>``; once
:meth:`AlertManager.arm_watchdog` runs, a scrape loop that has taken no
snapshot for longer than the grace fires ``stuck:metrics-scraper`` (an
on-demand scrape is no heartbeat).
Each incident transitions ``firing → resolved`` exactly once (a report
that judges often never re-prints the same alert), the history is
retained for reports, and each transition is also recorded in the
event log (``alert.fired`` / ``alert.resolved``) so alerts interleave
with the faults and state changes that caused them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.events import EventLog, EventType
from repro.obs.metrics import Exemplar, Histogram
from repro.obs.scrape import MetricsScraper

#: The burn-rate windows: the standard fast (page on a spike) and slow
#: (confirm it is sustained) pair.
FAST_WINDOW_SECONDS = 300.0
SLOW_WINDOW_SECONDS = 3600.0
#: Burn rate both windows must reach for an objective to count as burning.
BURN_RATE_THRESHOLD = 1.0
#: Exemplar trace ids a burning queue-wait objective surfaces.
MAX_EXEMPLARS = 5

#: The queue-wait objective: p95 under 30 s.  The bound sits on a
#: default histogram bucket bound, so the good/bad split is exact.
QUEUE_WAIT_P95_SECONDS = 30.0
QUEUE_WAIT_TARGET = 0.95
#: The submission-success objective.
SUCCESS_TARGET = 0.99

#: Incidents the history keeps, oldest dropped first.
MAX_HISTORY = 256


class Alert:
    """One incident: fired at a point in time, possibly resolved later."""

    __slots__ = ("name", "severity", "summary", "fired_at", "resolved_at",
                 "fields")

    def __init__(self, name: str, severity: str, summary: str,
                 fired_at: float, fields: Optional[dict] = None):
        self.name = name
        self.severity = severity
        self.summary = summary
        self.fired_at = fired_at
        self.resolved_at: Optional[float] = None
        self.fields: dict = fields if fields is not None else {}

    @property
    def active(self) -> bool:
        return self.resolved_at is None

    @property
    def state(self) -> str:
        return "firing" if self.active else "resolved"

    def __repr__(self):
        return (f"<Alert {self.name} {self.state} "
                f"fired_at={self.fired_at:g}>")


class WindowBurn:
    """One objective's good/bad split and burn rate over one window."""

    __slots__ = ("good", "bad", "burn_rate")

    def __init__(self, good: float, bad: float, target: float):
        self.good = good
        self.bad = bad
        total = good + bad
        #: bad fraction / error budget; 0.0 with no data.
        self.burn_rate = (bad / total) / (1.0 - target) if total > 0 else 0.0

    @property
    def total(self) -> float:
        return self.good + self.bad

    @property
    def has_data(self) -> bool:
        return self.total > 0


class SloStatus:
    """One objective's judgment at one instant."""

    __slots__ = ("name", "target", "fast", "slow", "burning", "exemplars")

    def __init__(self, name: str, target: float, fast: WindowBurn,
                 slow: WindowBurn):
        self.name = name
        self.target = target
        self.fast = fast
        self.slow = slow
        #: True when BOTH windows have data and burn at/over the threshold.
        self.burning = (fast.has_data and slow.has_data
                        and fast.burn_rate >= BURN_RATE_THRESHOLD
                        and slow.burn_rate >= BURN_RATE_THRESHOLD)
        #: Queue wait only: traced observations above the bound, while
        #: burning.
        self.exemplars: List[Exemplar] = []

    @property
    def state(self) -> str:
        if not (self.fast.has_data or self.slow.has_data):
            return "no-data"
        return "burning" if self.burning else "ok"


class AlertManager:
    """Judges the objectives and the scraper watchdog; fires and resolves
    alerts, deduplicated within an incident."""

    def __init__(self, scraper: MetricsScraper,
                 events: Optional[EventLog] = None):
        self.scraper = scraper
        self.clock = scraper.clock
        self.events = events
        #: Currently-firing alerts by name (one active incident max).
        self._active: Dict[str, Alert] = {}
        #: Full incident history, oldest first (bounded).
        self.history: List[Alert] = []
        #: (armed at, grace) of the scraper watchdog; None until armed.
        self._watchdog: Optional[Tuple[float, float]] = None
        self.total_fired = 0
        self.total_resolved = 0

    # -- core transitions ----------------------------------------------------

    def fire(self, name: str, summary: str, severity: str = "warning",
             at: Optional[float] = None, **fields) -> Alert:
        """Open the ``name`` incident; idempotent while it stays active.

        Re-firing an active alert returns the existing incident
        untouched (the dedup contract) — only its fields are refreshed
        so the latest context wins in reports.
        """
        existing = self._active.get(name)
        if existing is not None:
            existing.fields.update(fields)
            return existing
        alert = Alert(name, severity, summary,
                      self.clock() if at is None else at, fields=dict(fields))
        self._active[name] = alert
        self.history.append(alert)
        if len(self.history) > MAX_HISTORY:
            del self.history[:len(self.history) - MAX_HISTORY]
        self.total_fired += 1
        if self.events is not None:
            self.events.emit(EventType.ALERT_FIRED, at=alert.fired_at,
                             alert=name, severity=severity, summary=summary,
                             **fields)
        return alert

    def resolve(self, name: str,
                at: Optional[float] = None) -> Optional[Alert]:
        """Close the active ``name`` incident; no-op if none is firing."""
        alert = self._active.pop(name, None)
        if alert is None:
            return None
        alert.resolved_at = self.clock() if at is None else at
        self.total_resolved += 1
        if self.events is not None:
            self.events.emit(EventType.ALERT_RESOLVED, at=alert.resolved_at,
                             alert=name, severity=alert.severity,
                             duration=alert.resolved_at - alert.fired_at)
        return alert

    # -- the objectives -------------------------------------------------------

    def statuses(self, now: float) -> List[SloStatus]:
        """Both objectives judged at ``now`` on the scraper's history."""
        queue = SloStatus("queue-wait-p95", QUEUE_WAIT_TARGET,
                          self._queue_wait(now, FAST_WINDOW_SECONDS),
                          self._queue_wait(now, SLOW_WINDOW_SECONDS))
        if queue.burning:
            queue.exemplars = self._queue_wait_exemplars(now)
        return [queue, SloStatus("submission-success", SUCCESS_TARGET,
                                 self._success(now, FAST_WINDOW_SECONDS),
                                 self._success(now, SLOW_WINDOW_SECONDS))]

    def _queue_wait(self, now: float, window: float) -> WindowBurn:
        """Good = observations in buckets whose bound is at or under the
        30 s bound; any other bucket may hold a longer wait, so it is bad."""
        delta = self.scraper.histogram_delta("sched_queue_wait_seconds",
                                             now, window)
        if delta is None or delta.count <= 0:
            return WindowBurn(0.0, 0.0, QUEUE_WAIT_TARGET)
        good = 0
        for bound, count in zip(delta.bounds, delta.bucket_counts):
            if bound > QUEUE_WAIT_P95_SECONDS:
                break
            good += count
        return WindowBurn(float(good), float(delta.count - good),
                          QUEUE_WAIT_TARGET)

    def _success(self, now: float, window: float) -> WindowBurn:
        scraper = self.scraper
        good = scraper.counter_delta("jobs_finished", now, window,
                                     label="status=succeeded")
        bad = (scraper.counter_delta("jobs_finished", now, window,
                                     label="status=failed")
               + scraper.counter_delta("dead_letters_drained", now, window))
        return WindowBurn(good, bad, SUCCESS_TARGET)

    def _queue_wait_exemplars(self, now: float) -> List[Exemplar]:
        """The newest traced waits above the bound in the slow window."""
        metric = self.scraper.registry.get("sched_queue_wait_seconds")
        if not isinstance(metric, Histogram):
            return []
        exemplars = metric.exemplars_above(
            QUEUE_WAIT_P95_SECONDS, since=now - SLOW_WINDOW_SECONDS)
        exemplars.sort(key=lambda e: e.time, reverse=True)
        return exemplars[:MAX_EXEMPLARS]

    # -- evaluation ----------------------------------------------------------

    def arm_watchdog(self, grace: float) -> None:
        """From now on, fire ``stuck:metrics-scraper`` whenever the
        scraper's newest snapshot is more than ``grace`` seconds old.  A
        snapshot taken before arming counts as taken at the arming
        instant, so arming late cannot page."""
        self._watchdog = (self.clock(), grace)

    def check(self, now: Optional[float] = None,
              scrape: bool = False) -> List[Alert]:
        """One evaluation pass over the objectives and the watchdog;
        returns active alerts.

        The scrape loop calls this after each snapshot (``scrape=False``
        — the sample is already fresh); ``rai alerts`` calls it with
        ``scrape=True`` for an on-demand judgment.
        """
        if now is None:
            now = self.clock()
        if scrape:
            self.scraper.sample()
        for status in self.statuses(now):
            name = f"slo:{status.name}"
            if status.burning:
                self.fire(
                    name,
                    summary=(f"SLO {status.name} burning: "
                             f"fast {status.fast.burn_rate:.1f}x / "
                             f"slow {status.slow.burn_rate:.1f}x budget"),
                    severity="critical", at=now,
                    slo=status.name,
                    fast_burn=round(status.fast.burn_rate, 4),
                    slow_burn=round(status.slow.burn_rate, 4),
                    exemplars=[e.trace_id for e in status.exemplars],
                )
            else:
                self.resolve(name, at=now)
        if self._watchdog is not None:
            armed_at, grace = self._watchdog
            last = self.scraper.last_scrape_at
            beat = armed_at if last is None else max(last, armed_at)
            if now - beat > grace:
                self.fire("stuck:metrics-scraper",
                          summary="metrics scraper has stopped taking "
                                  "snapshots",
                          at=now, component="metrics-scraper",
                          last_beat=last, grace=grace)
            else:
                self.resolve("stuck:metrics-scraper", at=now)
        return self.active()

    # -- queries ------------------------------------------------------------

    def active(self) -> List[Alert]:
        return sorted(self._active.values(), key=lambda a: a.fired_at)

    def incidents(self) -> List[Alert]:
        """Incident history, oldest first."""
        return list(self.history)

    def stats(self) -> dict:
        return {
            "active": len(self._active),
            "total_fired": self.total_fired,
            "total_resolved": self.total_resolved,
        }
