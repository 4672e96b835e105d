"""Build, run, check and measure one workload.

A *repeat* builds a fresh deployment from the seed (process-wide id counters
reset, ``gc.collect()`` first), times ``RaiSystem.run_all`` over the
workload's client generators with the host clock, then passes the validity
gate before any of its numbers count.  Host time is reported raw: no
rescaling, no calibration, no discarded repeat.  A run is k repeats in one
process; host metrics are the median of the k, sim-clock metrics come from
repeat 1 and must be identical in the others.
"""

from __future__ import annotations

import gc
import hashlib
import os
import re
import resource
import shutil
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.broker.message import reset_message_ids
from repro.core.job import reset_job_ids
from repro.core.system import RaiSystem
from repro.obs.context import reset_obs_ids
from repro.obs.events import EventType

from bench import metrics as M
from bench.tracing import LayerTracer, busy_wait
from bench.workloads import WORKLOADS, Prepared, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".bench_work")

REPEATS = 3
NOISY_SPREAD = 0.10
WARMUP_SCALE = 0.05
MIN_SAMPLES = 1000          # so p99 has at least ten samples beyond it
USAGE_TOLERANCE_USD = 1e-6
LATENESS_TOLERANCE_S = 1e-9     # now + (due - now) can miss due by an ulp


class GateError(Exception):
    """A repeat's outputs are wrong; its numbers do not count."""


@dataclass
class Repeat:
    setup_s: float
    host_s: float
    attempted: int
    samples: int
    digest: str
    sim: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)


def scratch_dir(tag: str) -> str:
    path = os.path.join(WORK_DIR, f"{os.getpid()}-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def plan_rng(workload: Workload, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, list(WORKLOADS).index(workload.name)])


# -- the validity gate --------------------------------------------------------

def gate(system: RaiSystem, prepared: Prepared, full_scale: bool) -> None:
    """Raise :class:`GateError` unless the run is right.  A run that passes
    has no failed submission: ``failed`` is 0 in every result printed."""
    problems: List[str] = []
    records = prepared.records
    if len(records) != prepared.attempted:
        problems.append(f"{prepared.attempted} submissions planned, "
                        f"{len(records)} issued")
    terminal = Counter()
    recorded_status = {}
    for doc in system.db.collection("submissions").find({}):
        terminal[doc["job_id"]] += 1
        recorded_status[doc["job_id"]] = doc["status"]
    right = 0
    for record in records:
        result = record.result
        if result is None or result.queued_at is None:
            continue    # never accepted: rejected, or still in flight
        if (result.status is record.expect
                and terminal[result.job_id] == 1
                and recorded_status[result.job_id] == record.expect.value):
            right += 1
    failed = prepared.attempted - right
    if failed:
        problems.append(f"{failed} of {prepared.attempted} submissions did "
                        "not end in their intended status with exactly one "
                        "terminal record")
    if any(abs(record.lateness) > LATENESS_TOLERANCE_S for record in records):
        problems.append("the open-loop generator ran late")
    if system.broker.dead_letter_count():
        problems.append(f"{system.broker.dead_letter_count()} dead letters")
    # Every issued job has its terminal record (above), so nothing queued
    # means no work is outstanding.  Delivery bookkeeping left behind is
    # reported as ``broker.in_flight_leaked`` and does not fail the run:
    # at this commit StealingConsumer acks a stolen message on its home
    # channel when the victim's queue is empty (an empty Channel is
    # falsy), so deadline_backlog leaves a few entries.
    if system.queue_depth():
        problems.append(f"not quiescent: {system.queue_depth()} queued")
    logical = system.storage.chunk_store.total_logical_bytes
    audit = system.storage.rebuild_chunk_refcounts()
    if audit["orphaned_chunks"] or audit["logical_bytes"] != logical:
        problems.append(f"chunk store audit: {audit}, tracked {logical}")
    if system.build_cache is not None:
        problems += system.build_cache.verify()
    books = system.cost_allocator.preview()
    residual = abs(books["attributed_total"] + books["idle_cost"]
                   - books["fleet_cost"])
    if residual > USAGE_TOLERANCE_USD:
        problems.append(f"usage books off by ${residual}")
    if full_scale and right < MIN_SAMPLES:
        problems.append(f"{right} latency samples, p99 needs {MIN_SAMPLES}")
    if problems:
        raise GateError("; ".join(problems))


def digest_of(prepared: Prepared) -> str:
    """What happened to every job: the determinism check."""
    lines = sorted(
        f"{r.result.job_id} {r.result.status.value} {r.result.worker_id} "
        f"{r.result.queued_at!r} {r.result.finished_at!r}"
        for r in prepared.records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def sim_metrics(system: RaiSystem, prepared: Prepared) -> Dict[str, float]:
    accepted = [r for r in prepared.records if r.result.queued_at is not None]
    latency = [r.result.finished_at - r.origin for r in accepted]
    firsts = [r.result.finished_at - r.origin for r in accepted if r.first]
    waits = [r.result.queue_wait for r in accepted]
    busy = sum(worker.busy_seconds for worker in system.workers)
    return {
        "submit_p50_sim_s": M.percentile(latency, 50),
        "submit_p99_sim_s": M.percentile(latency, 99),
        "first_p50_sim_s": M.percentile(firsts, 50),
        "queue_wait_p99_sim_s": M.percentile(waits, 99),
        "slot_s_per_sub": busy / len(accepted),
    }


# -- one repeat ---------------------------------------------------------------

@dataclass
class Probe:
    """What the traced pass reads at entry points, besides time."""

    system: Optional[RaiSystem] = None
    peak_depth: int = 0
    acquire_costs: List[float] = field(default_factory=list)
    wal_bytes: int = 0
    wal_size: int = 0

    def observers(self, tracer: LayerTracer) -> dict:
        def on_publish(args, kwargs, result):
            self.peak_depth = max(self.peak_depth, self.system.queue_depth())

        def on_acquire(args, kwargs, result):
            self.acquire_costs.append(result[2])

        def on_wal_append(args, kwargs, result):
            size = args[0].size_bytes
            self.wal_bytes += size - self.wal_size if size > self.wal_size \
                else size
            self.wal_size = size

        def on_span(args, kwargs, result):
            job_id = kwargs.get("job_id")
            holder = tracer.current_holder()
            if job_id is not None and holder is not None:
                tracer.worker_job(holder, job_id)

        return {"MessageBroker.publish": on_publish,
                "WarmContainerPool.acquire": on_acquire,
                "WriteAheadLog.append": on_wal_append,
                "Tracer.start_span": on_span}


def run_repeat(workload: Workload, seed: int, scale: float, tag: str,
               overrides: Optional[dict] = None,
               tracer: Optional[LayerTracer] = None,
               probe: Optional[Probe] = None,
               untraced_host_s: Optional[float] = None) -> Repeat:
    reset_job_ids()
    reset_message_ids()
    reset_obs_ids()
    gc.collect()
    tmpdir = scratch_dir(tag)
    try:
        t0 = time.perf_counter()
        plan = workload.plan(plan_rng(workload, seed), scale)
        system = workload.build(seed, overrides)
        prepared = workload.prepare(system, plan, tmpdir)
        t1 = time.perf_counter()
        pulled = _bytes_pulled(system)
        if tracer is not None:
            probe.system = system
            tracer.start()
        t2 = time.perf_counter()
        system.run_all(prepared.drivers)
        t3 = time.perf_counter()
        if tracer is not None:
            tracer.stop()
        gate(system, prepared, full_scale=scale >= 1.0)
        repeat = Repeat(
            setup_s=t1 - t0, host_s=t3 - t2, attempted=prepared.attempted,
            samples=len(prepared.records),
            digest=digest_of(prepared), sim=sim_metrics(system, prepared))
        if tracer is not None:
            repeat.layers = layer_metrics(
                system, prepared, tracer, probe, pulled,
                traced_host_s=t3 - t2, untraced_host_s=untraced_host_s)
        return repeat
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _bytes_pulled(system: RaiSystem) -> int:
    return sum(w.runtime.stats()["bytes_pulled"] for w in system.workers)


# -- per-layer numbers --------------------------------------------------------

def layer_metrics(system: RaiSystem, prepared: Prepared, tracer: LayerTracer,
                  probe: Probe, pulled_in_setup: int, traced_host_s: float,
                  untraced_host_s: float) -> Dict[str, float]:
    subs = prepared.attempted
    results = [r.result for r in prepared.records]
    out: Dict[str, float] = {}

    # Host time: self time per layer, from the traced pass.
    self_ns = Counter()
    for (layer, name), (_, _, ns) in tracer.stats.items():
        if layer == "core":
            layer = ("core.client" if name.startswith("RaiClient")
                     else "core.worker" if name.startswith("worker.")
                     else "core.system")
        self_ns[layer] += ns
    attributed = 0
    for metric in M.PER_LAYER:
        layer, hit = re.subn(r"[._]self_us_per_sub$", "", metric.name)
        if hit:
            out[metric.name] = self_ns[layer] / 1e3 / subs
            attributed += self_ns[layer]
    out["trace.unattributed_share"] = 1.0 - attributed / tracer.wall_ns
    out["trace.overhead_share"] = \
        (traced_host_s - untraced_host_s) / untraced_host_s
    out["trace.entry_points_called"] = len(tracer.entries_called())

    def per_sub(calls: int) -> float:
        return calls / subs

    events = system.sim.scheduled_events
    out["sim.events_per_sub"] = events / subs
    out["sim.us_per_event"] = untraced_host_s * 1e6 / events

    counters = system.broker.counters
    out["broker.msgs_per_sub"] = counters.get("messages_published") / subs
    out["broker.bytes_per_sub"] = system.broker.total_bytes_published / subs
    out["broker.redeliveries"] = \
        system.events.counts.get(EventType.BROKER_REDELIVER, 0)
    out["broker.dead_letters"] = system.broker.dead_letter_count()
    out["broker.in_flight_leaked"] = system.metrics.value("in_flight")
    out["broker.peak_depth"] = probe.peak_depth

    out["sched.selects_per_sub"] = per_sub(tracer.calls("JobScheduler.select"))
    out["sched.wait_p50_sim_s"] = system.metrics.histogram(
        "sched_queue_wait_seconds").percentile(50)
    waits = ([system.scheduler.wait_stats()] if system.scheduler is not None
             else list(system.shards.wait_stats().values()))
    team_means = [team["mean_wait"] for part in waits
                  for team in part["teams"].values()]
    dispatched = sum(part["dispatched"] for part in waits)
    mean_wait = sum(part["global_mean_wait"] * part["dispatched"]
                    for part in waits) / dispatched
    out["sched.max_team_wait_over_mean"] = \
        max(team_means) / mean_wait if mean_wait else 0.0

    if system.shards is not None:
        parts = system.shards.stats()["partitions"]
        routed = [p["routed"] for p in parts]
        out["shard.steals_per_sub"] = per_sub(
            sum(p["steals_in"] + p["rebalanced_in"] for p in parts))
        out["shard.route_imbalance"] = max(routed) / statistics.mean(routed)
    else:
        out["shard.steals_per_sub"] = 0.0
        out["shard.route_imbalance"] = 0.0

    planner = system.db.planner_stats()
    indexed = planner["index_hits"] + planner["range_hits"]
    paths = indexed + planner["scans"]
    out["docdb.ops_per_sub"] = system.usage.totals.get("docdb_ops", 0.0) / subs
    out["docdb.index_path_share"] = indexed / paths
    out["docdb.docs_examined_per_op"] = planner["docs_examined"] / paths

    out["storage.wire_bytes_per_sub"] = \
        sum(r.upload_bytes for r in results) / subs
    out["storage.dedup_ratio"] = system.storage.chunk_store.dedup_ratio()
    fetch = [w.fetch_cache_stats() for w in system.workers]
    hit = sum(f["hit_bytes"] for f in fetch)
    out["storage.fetch_saved_share"] = \
        hit / (hit + sum(f["miss_bytes"] for f in fetch))
    out["storage.retries"] = system.monitor.counters.get("storage_retries")

    cache = system.build_cache.stats()
    out["buildcache.lookups_per_sub"] = per_sub(cache["hits"] + cache["misses"])
    out["buildcache.hit_share"] = system.build_cache.hit_rate()
    out["buildcache.captures_per_sub"] = \
        per_sub(tracer.calls("BuildCache.capture"))
    out["buildcache.evictions"] = cache["evictions"]

    out["vfs.pack_unpack_per_sub"] = per_sub(
        tracer.calls("pack_tree") + tracer.calls("unpack_tree"))
    out["vfs.archive_bytes_per_sub"] = \
        sum(r.upload_bytes_full for r in results) / subs
    out["buildspec.parses_per_sub"] = \
        per_sub(tracer.calls("parse_build_spec"))

    out["container.pool_hit_share"] = system.fleet_pool_hit_rate()
    out["container.acquire_p50_sim_s"] = M.percentile(probe.acquire_costs, 50)
    out["container.exec_lines_per_sub"] = \
        per_sub(tracer.calls("Container.exec_line"))
    out["container.pull_bytes_per_sub"] = \
        (_bytes_pulled(system) - pulled_in_setup) / subs
    out["gpu.infer_calls_per_sub"] = per_sub(tracer.calls("infer"))
    out["auth.verifies_per_sub"] = per_sub(tracer.calls("verify_request"))

    traces = system.tracer.stats()
    out["obs.spans_per_sub"] = traces["spans_total"] / subs
    out["obs.events_per_sub"] = system.events.total_emitted / subs
    out["obs.event_ring_dropped_share"] = \
        system.events.dropped / system.events.total_emitted
    out["obs.trace_evicted_share"] = \
        traces["evicted"] / (traces["evicted"] + traces["traces"])
    out["obs.scrapes"] = system.scraper.total_scrapes

    books = system.cost_allocator.preview()
    out["usage.records_per_sub"] = system.usage.total_records / subs
    out["usage.conservation_residual_usd"] = abs(
        books["attributed_total"] + books["idle_cost"] - books["fleet_cost"])

    out.update(durability_metrics(system, prepared, probe))
    return out


def durability_metrics(system: RaiSystem, prepared: Prepared,
                       probe: Probe) -> Dict[str, float]:
    subs = prepared.attempted
    if system.durability is None:
        return {f"durability.{name}": 0.0 for name in (
            "wal_records_per_sub", "wal_bytes_per_sub", "checkpoints",
            "restore_ms", "restore_replayed_records")}
    stats = system.durability.stats()
    live = len(system.db.collection("submissions"))
    # Die without a final snapshot, then cold-start from what is on disk.
    system.crash_stop()
    t0 = time.perf_counter()
    restored = RaiSystem.restore(prepared.durability_dir, num_workers=0)
    restore_s = time.perf_counter() - t0
    replay = restored.events.query(type=EventType.DURABILITY_REPLAY)[-1]
    restored.crash_stop()
    if len(restored.db.collection("submissions")) != live:
        raise GateError("restore lost terminal records")
    return {
        "durability.wal_records_per_sub": stats["records_logged"] / subs,
        "durability.wal_bytes_per_sub": probe.wal_bytes / subs,
        "durability.checkpoints": stats["checkpoints"],
        "durability.restore_ms": restore_s * 1e3,
        "durability.restore_replayed_records": replay.fields["replayed"],
    }


# -- a run: what one invocation of the command measures ----------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(workload: Workload, seed: int, scale: float) -> None:
    """Fill the host's caches (code objects, allocator, lazy imports) with
    a small pass whose numbers are thrown away."""
    run_repeat(workload, seed, min(scale, WARMUP_SCALE), "warmup")


@contextmanager
def injected(delay: Optional[tuple]):
    """``--sensitivity``: while open, ``delay = (entry point, micros)``
    spins that long before every call of the entry point."""
    patcher = LayerTracer()
    try:
        if delay is not None:
            patcher.patch(delay[0], busy_wait(delay[1]))
        yield
    finally:
        patcher.uninstall()


def run_untraced(workload: Workload, seed: int, scale: float,
                 import_s: float,
                 overrides: Optional[dict] = None,
                 delay: Optional[tuple] = None) -> dict:
    """k repeats, tracing off: the end-to-end metrics.  ``import_s`` is
    what importing the program and the benchmark took in this process."""
    warm_up(workload, seed, scale)
    with injected(delay):
        repeats = [run_repeat(workload, seed, scale, f"r{i}", overrides)
                   for i in range(REPEATS)]
    first = repeats[0]
    if any(r.digest != first.digest or r.sim != first.sim
           for r in repeats[1:]):
        raise GateError("repeats of one seed disagree: not deterministic")
    host = [r.host_s for r in repeats]
    setups = [r.setup_s for r in repeats]
    values = dict(first.sim)
    values["host_us_per_sub"] = \
        statistics.median(host) * 1e6 / first.attempted
    values["setup_s"] = import_s + statistics.median(setups)
    values["peak_rss_mb"] = peak_rss_mb()
    return {
        "workload": workload.name, "seed": seed, "scale": scale,
        "attempted": first.attempted, "failed": 0,
        "samples": first.samples, "digest": first.digest,
        "metrics": values,
        "host_s_repeats": host,
        "host_spread": M.spread(host),
        "noisy": M.spread(host) > NOISY_SPREAD,
        "import_s": import_s, "setup_s_repeats": setups,
    }


def run_traced(workload: Workload, seed: int, scale: float,
               overrides: Optional[dict] = None,
               delay: Optional[tuple] = None,
               spans_path: Optional[str] = None) -> dict:
    """One untraced repeat, then the same inputs traced: per-layer metrics."""
    warm_up(workload, seed, scale)
    tracer = LayerTracer()
    probe = Probe()
    tracer.observers = probe.observers(tracer)
    with injected(delay):
        plain = run_repeat(workload, seed, scale, "plain", overrides)
        try:
            tracer.install()
            traced = run_repeat(workload, seed, scale, "traced", overrides,
                                tracer=tracer, probe=probe,
                                untraced_host_s=plain.host_s)
        finally:
            tracer.uninstall()
    if traced.digest != plain.digest or traced.sim != plain.sim:
        raise GateError("the traced pass changed the run")
    jobs_written = tracer.write_jsonl(spans_path) if spans_path else 0
    return {
        "workload": workload.name, "seed": seed, "scale": scale,
        "attempted": traced.attempted, "failed": 0,
        "samples": traced.samples, "digest": traced.digest,
        "metrics": traced.layers, "sim": traced.sim,
        "host_us_per_sub_untraced": plain.host_s * 1e6 / plain.attempted,
        "entry_points_called": sorted(tracer.entries_called()),
        "calls": {name: stat[0] for (_, name), stat
                  in sorted(tracer.stats.items())},
        "span_jobs_written": jobs_written,
    }
