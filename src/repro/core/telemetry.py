"""Operational telemetry: the data behind §VII's provisioning decisions.

The course staff watched queue depth, worker utilisation, and submission
bursts to decide when to move from G2 to P2 instances and when to grow
the fleet ("we found that students worked in bursts, which required RAI
to be elastic to remain reliable and cost-efficient").  The deployment's
:class:`~repro.obs.scrape.MetricsScraper` samples those signals on the sim
clock; this module renders them as an operator health report.
"""

from __future__ import annotations

import math
from typing import List

from repro.analysis.report import format_bytes, render_table


def health_report(system) -> str:
    """An operator-facing snapshot + (if scraped) averaged signals."""
    stats = system.stats()
    rows: List[list] = [
        ["simulated time", f"{stats['now'] / 3600:.1f} h"],
        ["workers running",
         f"{stats['workers']['running']}/{stats['workers']['total']}"],
        ["jobs completed", stats["workers"]["jobs_completed"]],
        ["jobs failed", stats["workers"]["jobs_failed"]],
        ["queue depth (now)", stats["queue_depth"]],
        ["submissions recorded", stats["submissions_recorded"]],
        ["file server", format_bytes(stats["storage"]["total_bytes"])],
        ["db documents", stats["database"]["total_documents"]],
        ["rate-limit rejections", stats["rate_limiter"]["rejected"]],
    ]
    counters = system.monitor.counters
    recovery = [
        ("dead letters (parked)", stats.get("dead_letters", 0)),
        ("dead letters (drained)", counters.get("dead_letters_drained")),
        ("storage retries", counters.get("storage_retries")),
        ("faults injected", counters.get("faults_injected")),
        ("duplicate records suppressed",
         counters.get("duplicate_records_suppressed")),
        ("jobs past deadline", counters.get("jobs_deadline_exceeded")),
    ]
    for label, value in recovery:
        if value:
            rows.append([label, int(value)])
    # Every sample the scraper still holds (none unless something scraped:
    # ``start_observability``, ``rai slo``, ``rai alerts``).
    for signal in ("queue_depth", "workers_running", "jobs_active"):
        values = [value for _, value in system.scraper.gauge_samples(
            signal, system.sim.now, math.inf)]
        if values:
            rows.append([f"{signal} (avg)",
                         f"{sum(values) / len(values):.2f}"])
            rows.append([f"{signal} (peak)", f"{max(values):.0f}"])
    # Active alerts, one row per *incident* however often this report
    # runs: the pass below judges SLO burn on the samples already held and
    # the scraper watchdog (a wedged scrape loop is itself an alert).
    for alert in system.alerts.check(scrape=False):
        rows.append([f"⚠ ALERT {alert.name}",
                     f"{alert.summary} "
                     f"(firing since t={alert.fired_at:.0f}s)"])
    resolved = system.alerts.total_resolved
    if resolved:
        rows.append(["alerts resolved", resolved])
    return render_table(["metric", "value"], rows,
                        title="RAI deployment health")
