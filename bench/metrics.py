"""Metric names, units, directions and bounds; percentiles; compare verdicts.

``END_TO_END`` and ``PER_LAYER`` are the contract: ``BENCHMARK.json`` lists
exactly these names, units and bounds (``bench/tests`` checks it), and every
later performance claim in this repo is stated in them.

Every metric says which clock it is on.  *Sim* metrics are what the modelled
student or fleet experiences; for one seed they repeat exactly, so two
commits compare exactly.  *Host* metrics are what the simulator costs us
and carry the sandbox's noise.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                 # "lower" | "higher"
    clock: str                  # "sim" | "host" | "count"
    source: str                 # the accessor or call it is read from
    bound: Optional[float] = None   # end-to-end only


#: ``failed_share`` — (attempted − submissions whose terminal status is the
#: one the generator intended, with exactly one docdb terminal record) /
#: attempted — is the ninth end-to-end number.  It is 0 on every workload
#: and any failure is a regression, so it rides in the result's ``failed``
#: and ``attempted`` keys and not in this table of bounded, non-zero
#: metrics.
END_TO_END = (
    Metric("submit_p50_sim_s", "s", "lower", "sim",
           "median of JobResult.finished_at − issue/due time, accepted "
           "submissions", 0.20),
    Metric("submit_p99_sim_s", "s", "lower", "sim",
           "p99 of the same", 0.15),
    Metric("first_p50_sim_s", "s", "lower", "sim",
           "median of the same over each client's first submission", 0.25),
    Metric("queue_wait_p99_sim_s", "s", "lower", "sim",
           "p99 of JobResult.queue_wait", 0.15),
    Metric("slot_s_per_sub", "s", "lower", "sim",
           "sum of RaiWorker.busy_seconds / accepted submissions", 0.03),
    Metric("host_us_per_sub", "us", "lower", "host",
           "median-of-3 perf_counter around RaiSystem.run_all / attempted "
           "submissions, tracing off", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "host",
           "resource.getrusage(RUSAGE_SELF).ru_maxrss at exit", 0.08),
    Metric("setup_s", "s", "lower", "host",
           "process start to program imported + median-of-3 of (schedule "
           "draw, system, worker and client construction, staging)", 0.25),
)


def _layer(layer: str, *rows) -> List[Metric]:
    out = [Metric(f"{layer}.self_us_per_sub", "us", "lower", "host",
                  f"traced pass: self time of {layer} entry points")]
    out += [Metric(f"{layer}.{name}", unit, better, clock, source)
            for name, unit, better, clock, source in rows]
    return out


PER_LAYER = tuple(
    [Metric("core.client_self_us_per_sub", "us", "lower", "host",
            "traced pass: RaiClient.* self time"),
     Metric("core.worker_self_us_per_sub", "us", "lower", "host",
            "traced pass: self time of RaiWorker's executor processes"),
     Metric("core.system_self_us_per_sub", "us", "lower", "host",
            "traced pass: RaiSystem.* and its periodic processes")]
    + _layer("sim",
             ("events_per_sub", "count", "lower", "count",
              "Simulator.scheduled_events"),
             ("us_per_event", "us", "lower", "host",
              "untraced run_all wall / Simulator.scheduled_events"))
    + _layer("broker",
             ("msgs_per_sub", "count", "lower", "count",
              "MessageBroker.counters messages_published"),
             ("bytes_per_sub", "bytes", "lower", "count",
              "MessageBroker.total_bytes_published"),
             ("redeliveries", "count", "lower", "count",
              "EventLog.counts broker.redeliver"),
             ("dead_letters", "count", "lower", "count",
              "MessageBroker.dead_letter_count()"),
             ("in_flight_leaked", "count", "lower", "count",
              "in_flight gauge after the run: deliveries never acked on "
              "the channel that made them"),
             ("peak_depth", "count", "lower", "count",
              "max RaiSystem.queue_depth() seen after each publish "
              "(traced pass)"))
    + _layer("sched",
             ("selects_per_sub", "count", "lower", "count",
              "traced calls of JobScheduler.select"),
             ("wait_p50_sim_s", "s", "lower", "sim",
              "sched_queue_wait_seconds histogram, percentile(50)"),
             ("max_team_wait_over_mean", "ratio", "lower", "sim",
              "JobScheduler.wait_stats(): worst team mean wait / global"))
    + _layer("shard",
             ("steals_per_sub", "count", "lower", "count",
              "ShardedControlPlane.stats(): steals_in + rebalanced_in"),
             ("route_imbalance", "ratio", "lower", "count",
              "ShardedControlPlane.stats(): max routed / mean routed"))
    + _layer("docdb",
             ("ops_per_sub", "count", "lower", "count",
              "UsageMeter.totals docdb_ops"),
             ("index_path_share", "share", "higher", "count",
              "DocumentDB.planner_stats(): (index+range hits) / all paths"),
             ("docs_examined_per_op", "count", "lower", "count",
              "DocumentDB.planner_stats(): docs_examined / paths"))
    + _layer("storage",
             ("wire_bytes_per_sub", "bytes", "lower", "count",
              "sum of JobResult.upload_bytes"),
             ("dedup_ratio", "ratio", "higher", "count",
              "ChunkStore.dedup_ratio()"),
             ("fetch_saved_share", "share", "higher", "count",
              "RaiWorker.fetch_cache_stats(): hit bytes / all bytes"),
             ("retries", "count", "lower", "count",
              "monitor counter storage_retries"))
    + _layer("buildcache",
             ("lookups_per_sub", "count", "lower", "count",
              "BuildCache.stats(): hits + misses"),
             ("hit_share", "share", "higher", "count",
              "BuildCache.hit_rate()"),
             ("captures_per_sub", "count", "lower", "count",
              "traced calls of BuildCache.capture"),
             ("evictions", "count", "lower", "count",
              "BuildCache.stats(): evictions"))
    + _layer("vfs",
             ("pack_unpack_per_sub", "count", "lower", "count",
              "traced calls of pack_tree + unpack_tree"),
             ("archive_bytes_per_sub", "bytes", "lower", "count",
              "sum of JobResult.upload_bytes_full"))
    + _layer("buildspec",
             ("parses_per_sub", "count", "lower", "count",
              "traced calls of parse_build_spec"))
    + _layer("container",
             ("pool_hit_share", "share", "higher", "count",
              "RaiSystem.fleet_pool_hit_rate()"),
             ("acquire_p50_sim_s", "s", "lower", "sim",
              "median cost returned by WarmContainerPool.acquire "
              "(traced pass)"),
             ("exec_lines_per_sub", "count", "lower", "count",
              "traced calls of Container.exec_line"),
             ("pull_bytes_per_sub", "bytes", "lower", "count",
              "ContainerRuntime.stats() bytes_pulled, run minus set-up"))
    + _layer("gpu",
             ("infer_calls_per_sub", "count", "lower", "count",
              "traced calls of repro.gpu.cnn.infer"))
    + _layer("auth",
             ("verifies_per_sub", "count", "lower", "count",
              "traced calls of verify_request"))
    + _layer("obs",
             ("spans_per_sub", "count", "lower", "count",
              "Tracer.stats() spans_total"),
             ("events_per_sub", "count", "lower", "count",
              "EventLog.total_emitted"),
             ("event_ring_dropped_share", "share", "lower", "count",
              "EventLog.dropped / total_emitted"),
             ("trace_evicted_share", "share", "lower", "count",
              "TraceStore.stats(): evicted traces / traces started"),
             ("scrapes", "count", "lower", "count",
              "MetricsScraper.total_scrapes"))
    + _layer("usage",
             ("records_per_sub", "count", "lower", "count",
              "UsageMeter.total_records"),
             ("conservation_residual_usd", "usd", "lower", "count",
              "CostAllocator.preview(): |attributed + idle − fleet|"))
    + _layer("durability",
             ("wal_records_per_sub", "count", "lower", "count",
              "DurabilityManager.stats() records_logged"),
             ("wal_bytes_per_sub", "bytes", "lower", "count",
              "traced bytes handed to WriteAheadLog.append"),
             ("checkpoints", "count", "lower", "count",
              "DurabilityManager.stats() checkpoints"),
             ("restore_ms", "ms", "lower", "host",
              "perf_counter around RaiSystem.restore(path) after the run"),
             ("restore_replayed_records", "count", "lower", "count",
              "durability.replay event of the restored system"))
    + [Metric("trace.overhead_share", "share", "lower", "host",
              "(traced − untraced run_all wall) / untraced"),
       Metric("trace.unattributed_share", "share", "lower", "host",
              "traced wall not inside any repro layer's span"),
       Metric("trace.entry_points_called", "count", "higher", "count",
              "rows of tracing.ENTRY_POINTS called at least once")])

SIM_METRICS = tuple(m.name for m in END_TO_END if m.clock == "sim")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` % of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """(max − min) / median of the repeats in one run."""
    mid = statistics.median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def quartiles(values: Sequence[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(base: Sequence[float], change: Sequence[float],
            metric: Metric) -> str:
    """``improved | unchanged | unresolved | regressed`` for one
    (workload, metric) pairing, by the choosing-metrics rule.

    Worse by more than the bound is a regression.  Within the bound it is
    ``unchanged`` only if the runs can tell: where either side's own
    run-to-run spread is wider than the bound and the sides overlap, the
    pairing is ``unresolved``.  ``improved`` needs every run of the change
    to read better than every run of the base and the medians to differ by
    more than the base's own quartile distance.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    a = [sign * v for v in base]
    b = [sign * v for v in change]
    q1a, mid_a, q3a = quartiles(a)
    q1b, mid_b, q3b = quartiles(b)
    bound = metric.bound or 0.0
    scale = abs(mid_a) or 1.0
    worse_by = (mid_b - mid_a) / scale
    if worse_by > bound:
        return "regressed"
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if not overlap and max(b) < min(a) and (mid_a - mid_b) > (q3a - q1a):
        return "improved"
    noisy = max(q3a - q1a, q3b - q1b) / scale > bound
    if noisy and overlap:
        return "unresolved"
    return "unchanged"


def as_json(metrics: Dict[str, float], table: Sequence[Metric]) -> dict:
    """The driver's ``metrics`` object: every name in ``table``, as
    measured, with all its digits."""
    return {m.name: {"value": metrics[m.name], "unit": m.unit}
            for m in table}
