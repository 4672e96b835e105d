"""Alert lifecycle management: fire once per incident, resolve, re-arm.

Two alert sources feed one manager:

- **SLO burn rates** — every attached :class:`~repro.obs.slo.SloEngine`
  spec that is burning on both windows fires ``slo:<name>``; when the
  burn clears, the alert resolves and re-arms for the next incident.
- **Heartbeat watchdogs** — components that should make regular
  progress (the metrics scraper) register a heartbeat; when the last
  beat is older than ``grace`` the manager fires ``stuck:<name>``, once
  per stall, resolving when beats resume.

The "once per incident" contract means a report that runs often (every
``health_report`` call judges the watchdogs) never re-prints the same
stuck warning: an :class:`Alert` here transitions
``firing → resolved`` exactly once per incident, the full history is
retained for reports, and each transition is also recorded in the event
log (``alert.fired`` / ``alert.resolved``) so alerts interleave with the
faults and state changes that caused them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.obs.events import EventLog, EventType

#: Alert severities (informational ordering only).
SEVERITIES = ("info", "warning", "critical")


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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "severity": self.severity,
            "state": self.state,
            "summary": self.summary,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "fields": dict(self.fields),
        }

    def __repr__(self):
        return (f"<Alert {self.name} {self.state} "
                f"fired_at={self.fired_at:g}>")


class _Heartbeat:
    """One registered liveness watchdog."""

    __slots__ = ("name", "last_beat", "grace", "severity", "summary")

    def __init__(self, name: str, last_beat: Callable[[], Optional[float]],
                 grace: float, severity: str, summary: str):
        self.name = name
        self.last_beat = last_beat
        self.grace = grace
        self.severity = severity
        self.summary = summary


class AlertManager:
    """Fires and resolves alerts; deduplicates within an incident."""

    def __init__(self, clock: Callable[[], float],
                 events: Optional[EventLog] = None,
                 max_history: int = 256):
        self.clock = clock
        self.events = events
        self.max_history = max_history
        #: Currently-firing alerts by name (one active incident max).
        self._active: Dict[str, Alert] = {}
        #: Full incident history, oldest first (bounded).
        self.history: List[Alert] = []
        self._heartbeats: List[_Heartbeat] = []
        self._slo_engines: list = []
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
        if len(self.history) > self.max_history:
            del self.history[:len(self.history) - self.max_history]
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

    # -- sources ------------------------------------------------------------

    def attach_slo_engine(self, engine) -> None:
        """Judge this engine's specs on every :meth:`check`."""
        self._slo_engines.append(engine)

    def watch_heartbeat(self, name: str,
                        last_beat: Callable[[], Optional[float]],
                        grace: float, severity: str = "warning",
                        summary: Optional[str] = None) -> None:
        """Fire ``stuck:<name>`` when the beat is older than ``grace``.

        ``last_beat`` returns the sim time of the component's most
        recent sign of life, or None before its first beat (never-beat
        components only trip the watchdog once the run is older than
        ``grace``, so construction order can't page).
        """
        if grace <= 0:
            raise ValueError("grace must be positive")
        self._heartbeats.append(_Heartbeat(
            name, last_beat, grace, severity,
            summary or f"{name} has stopped making progress"))

    # -- evaluation ----------------------------------------------------------

    def check(self, now: Optional[float] = None,
              scrape: bool = False) -> List[Alert]:
        """One evaluation pass over every source; returns active alerts.

        The scrape loop calls this after each snapshot (``scrape=False``
        — the sample is already fresh); ``rai alerts`` calls it with
        ``scrape=True`` for an on-demand judgment.
        """
        if now is None:
            now = self.clock()
        for engine in self._slo_engines:
            for status in engine.evaluate(now=now, scrape=scrape):
                name = f"slo:{status.spec.name}"
                if status.burning:
                    self.fire(
                        name,
                        summary=(f"SLO {status.spec.name} burning: "
                                 f"fast {status.fast.burn_rate:.1f}x / "
                                 f"slow {status.slow.burn_rate:.1f}x budget"),
                        severity="critical", at=now,
                        slo=status.spec.name,
                        fast_burn=round(status.fast.burn_rate, 4),
                        slow_burn=round(status.slow.burn_rate, 4),
                        exemplars=[e.trace_id for e in status.exemplars],
                    )
                else:
                    self.resolve(name, at=now)
        for hb in self._heartbeats:
            name = f"stuck:{hb.name}"
            last = hb.last_beat()
            stalled = ((last is None and now > hb.grace)
                       or (last is not None and now - last > hb.grace))
            if stalled:
                self.fire(name, summary=hb.summary, severity=hb.severity,
                          at=now, component=hb.name,
                          last_beat=last, grace=hb.grace)
            else:
                self.resolve(name, at=now)
        return self.active()

    # -- queries ------------------------------------------------------------

    def active(self) -> List[Alert]:
        return sorted(self._active.values(), key=lambda a: a.fired_at)

    def is_firing(self, name: str) -> bool:
        return name in self._active

    def incidents(self, name: Optional[str] = None) -> List[Alert]:
        """Incident history (optionally one alert name), oldest first."""
        if name is None:
            return list(self.history)
        return [a for a in self.history if a.name == name]

    def stats(self) -> dict:
        return {
            "active": len(self._active),
            "total_fired": self.total_fired,
            "total_resolved": self.total_resolved,
            "heartbeats": len(self._heartbeats),
            "slo_engines": len(self._slo_engines),
        }
