"""Scheduler + warm-start bench driver: resubmission storm vs the fleet.

The hot-path bench (:mod:`repro.workload.hotpath`) showed p95 submission
latency ~13× p50 — queueing delay plus per-job container startup, not the
build.  This driver measures the two fixes from the warm-start layer
against that exact failure mode:

- a **single-team resubmission storm** (many clients, one team, paced
  only by the rate limiter) floods the queue while ordinary teams keep
  their deadline-week resubmission cadence;
- run once as the **baseline** (FIFO dequeue, no warm pool: every job
  pays the cold container create) and once **warm** (fair-share
  deadline-aware scheduler + per-worker warm pool), same seed and shape.

Reported per mode: first-submission and resubmission latency p50/p95,
per-team mean queue waits (the fairness evidence: under DRR no team's
mean wait may exceed 2× the global mean), warm-pool hit rates overall and
on resubmissions (joined through docdb's ``pool_hit`` field), container
acquire costs, and layer-cache pull traffic.

``benchmarks/bench_sched.py`` runs this at the hotpath scales and writes
``BENCH_sched.json``; the tier-1 perf smoke runs the smoke scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import SystemConfig, WorkerConfig
from repro.core.job import JobStatus
from repro.core.system import RaiSystem

#: Build file for teams on the lean image — exercises the shared CUDA
#: base layer: a worker that pulled either course image pays only the
#: other's top layer.
MINIMAL_BUILD_YAML = """\
rai:
  version: '0.1'
  image: webgpu/rai:minimal
commands:
  build:
    - echo "Building project"
    - cmake /src
    - make
    - ./ece408 /data/test10.hdf5 /data/model.hdf5 10
"""


def _project_files(team: str) -> dict:
    return {
        "CMakeLists.txt": "add_executable(ece408 main.cu)\n" * 20,
        "main.cu": ("// @rai-sim quality=0.9 impl=im2col\n"
                    "#define TILE_WIDTH 16\n"
                    + f"// team {team}\n" * 40),
    }


def _tuning_file(team: str, attempt: int) -> str:
    return (f"// team {team} attempt {attempt}\n"
            f"#define BLOCK_DIM {8 + attempt}\n")


@dataclass
class SchedScale:
    """One benchmarked operating point (worker counts match hotpath)."""

    name: str
    n_teams: int                 # ordinary teams, one client each
    n_resubmissions: int         # per ordinary team, beyond the first
    n_workers: int
    slots_per_worker: int = 2
    storm_clients: int = 6       # clients sharing the one storm team
    storm_submissions: int = 4   # accepted submissions per storm client


SMOKE_SCALE = SchedScale("smoke", n_teams=3, n_resubmissions=2,
                         n_workers=2, storm_clients=3, storm_submissions=2)

DEFAULT_SCALES = (
    SchedScale("small", n_teams=4, n_resubmissions=3, n_workers=2,
               storm_clients=10, storm_submissions=3),
    SchedScale("medium", n_teams=8, n_resubmissions=5, n_workers=4,
               storm_clients=20, storm_submissions=4),
    SchedScale("large", n_teams=16, n_resubmissions=8, n_workers=6,
               storm_clients=30, storm_submissions=5),
)

#: The storm team's name in results and docdb.
STORM_TEAM = "team-storm"


def run_sched(scale: SchedScale, seed: int = 408,
              warm: bool = True,
              config: Optional[SystemConfig] = None) -> dict:
    """Replay the storm at ``scale``; returns the metrics dict.

    ``warm=False`` is the baseline: FIFO dequeue and a disabled pool, so
    every job pays the cold container create — the seed's behaviour.
    """
    wall_start = time.perf_counter()
    config = config or SystemConfig()
    config.scheduler_enabled = warm
    # A deadline-week storm: a tight submission window and the course
    # deadline a few hours out, so every job rides the boost band and
    # fairness comes entirely from DRR within it.  The rate limit is
    # loose enough that arrivals outrun the fleet's service rate — the
    # regime the scheduler exists for.
    config.rate_limit_seconds = 0.25
    config.course_deadline_at = 6 * 3600.0
    config.deadline_boost_window_seconds = 24 * 3600.0
    worker_config = WorkerConfig(
        max_concurrent_jobs=scale.slots_per_worker,
        warm_pool_size=2 if warm else 0,
        container_create_seconds=2.5,
        container_reset_seconds=0.25,
    )
    system = RaiSystem.standard(
        num_workers=scale.n_workers, seed=seed, config=config,
        worker_config=worker_config)

    # Ordinary teams' first submissions and resubmissions are the dev
    # loop the scheduler protects; the storm team is reported separately.
    first_results: List = []
    resub_results: List = []
    storm_results: List = []
    #: job_ids of every resubmission (ordinary + storm) for the warm-pool
    #: hit-rate join; team_waits feeds the fairness check over ALL teams.
    resub_job_ids: List[str] = []
    team_waits: Dict[str, List[float]] = {}
    gap = config.rate_limit_seconds + 0.5

    def _note_wait(team: str, result) -> None:
        if result.queue_wait is not None:
            team_waits.setdefault(team, []).append(result.queue_wait)

    def ordinary_team(i: int):
        team = f"team-{i:02d}"
        client = system.new_client(team=team,
                                   username=f"captain{i:02d}")
        files = _project_files(team)
        files["zz_tuning.cfg"] = _tuning_file(team, 0)
        if i % 2 == 1:
            files["rai-build.yml"] = MINIMAL_BUILD_YAML
        client.stage_project(files)
        yield system.sim.timeout(0.7 * i)
        for attempt in range(scale.n_resubmissions + 1):
            if attempt:
                client.stage_project(
                    {"zz_tuning.cfg": _tuning_file(team, attempt)})
                yield system.sim.timeout(gap)
            result = yield from client.submit()
            _note_wait(team, result)
            if attempt:
                resub_results.append(result)
                resub_job_ids.append(result.job_id)
            else:
                first_results.append(result)

    def storm_client(j: int):
        client = system.new_client(team=STORM_TEAM,
                                   username=f"storm{j:02d}")
        files = _project_files(STORM_TEAM)
        files["zz_tuning.cfg"] = _tuning_file(STORM_TEAM, 100 * j)
        client.stage_project(files)
        yield system.sim.timeout(0.1 * j)
        accepted = 0
        while accepted < scale.storm_submissions:
            result = yield from client.submit()
            if result.status is JobStatus.REJECTED:
                # Rate-limited (the whole team shares one window): back
                # off briefly and retry — the storm presses as hard as
                # the limiter allows.
                yield system.sim.timeout(0.3)
                continue
            storm_results.append(result)
            _note_wait(STORM_TEAM, result)
            if accepted or j:
                resub_job_ids.append(result.job_id)
            accepted += 1
            client.stage_project(
                {"zz_tuning.cfg": _tuning_file(STORM_TEAM,
                                               100 * j + accepted)})

    system.run_all(
        [ordinary_team(i) for i in range(scale.n_teams)]
        + [storm_client(j) for j in range(scale.storm_clients)])

    def _latency(results) -> Optional[dict]:
        samples = [r.finished_at - r.queued_at for r in results
                   if r.finished_at is not None and r.queued_at is not None]
        if not samples:
            return None
        return {
            "count": len(samples),
            "p50": round(float(np.percentile(samples, 50)), 3),
            "p95": round(float(np.percentile(samples, 95)), 3),
            "mean": round(float(np.mean(samples)), 3),
        }

    # Per-team queue waits measured client-side (identical bookkeeping in
    # both modes; the scheduler's own wait_stats only exists warm).
    all_waits = [w for waits in team_waits.values() for w in waits]
    global_mean_wait = float(np.mean(all_waits)) if all_waits else 0.0
    per_team_wait = {team: round(float(np.mean(waits)), 3)
                     for team, waits in sorted(team_waits.items())}
    max_team_wait = max(per_team_wait.values()) if per_team_wait else 0.0

    # Warm-pool hit rate on resubmissions: join through docdb's pool_hit.
    submissions = system.db.collection("submissions")
    resub_docs = [submissions.find_one({"job_id": jid})
                  for jid in resub_job_ids]
    resub_docs = [d for d in resub_docs if d is not None]
    resub_hits = sum(1 for d in resub_docs if d.get("pool_hit"))

    pool = {
        "hits": sum(w.pool.hits for w in system.workers),
        "misses": sum(w.pool.misses for w in system.workers),
        "hit_rate": round(system.fleet_pool_hit_rate(), 4),
        "resubmission_hit_rate": round(
            resub_hits / len(resub_docs), 4) if resub_docs else None,
        "evicted_ttl": sum(w.pool.evicted_ttl for w in system.workers),
        "rejected_tainted": sum(w.pool.rejected_tainted
                                for w in system.workers),
    }

    acquire: Dict[str, dict] = {}
    for outcome in ("warm", "cold"):
        hist = system.metrics.histogram("container_acquire_seconds",
                                        outcome=outcome)
        if hist.count:
            acquire[outcome] = {"count": hist.count,
                                "mean": round(hist.sum / hist.count, 3)}

    runtime_stats = [w.runtime.stats() for w in system.workers]
    # One-partition plane: its p0 scheduler (None in baseline mode).
    scheduler = system.shards.schedulers[0]
    metrics = {
        "scale": {"name": scale.name, "n_teams": scale.n_teams,
                  "n_resubmissions": scale.n_resubmissions,
                  "n_workers": scale.n_workers,
                  "slots_per_worker": scale.slots_per_worker,
                  "storm_clients": scale.storm_clients,
                  "storm_submissions": scale.storm_submissions},
        "mode": "warm" if warm else "baseline",
        "latency_s": {
            "first": _latency(first_results),
            "resubmissions": _latency(resub_results),
            "storm": _latency(storm_results),
        },
        "fairness": {
            "per_team_mean_wait": per_team_wait,
            "global_mean_wait": round(global_mean_wait, 3),
            "max_team_mean_wait": round(max_team_wait, 3),
            "max_over_global": round(max_team_wait / global_mean_wait, 3)
            if global_mean_wait else None,
        },
        "pool": pool,
        "container_acquire_s": acquire,
        "scheduler": (scheduler.wait_stats()
                      if scheduler is not None else None),
        "pull": {
            "bytes_pulled": sum(s["bytes_pulled"] for s in runtime_stats),
            "bytes_pull_saved": sum(s["bytes_pull_saved"]
                                    for s in runtime_stats),
        },
        "prefetch_claims": int(
            system.monitor.counters.get("worker_prefetch_claims")),
        "slot_utilization": {
            w.id: round(w.utilization(), 4) for w in system.workers},
        "wall_clock_s": round(time.perf_counter() - wall_start, 3),
    }
    return metrics
