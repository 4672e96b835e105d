"""Shard-scale workload: submission throughput across control-plane shards.

The single-queue control plane has one structural ceiling: every dispatch
runs the fair-share scheduler's :meth:`~repro.sched.JobScheduler.select`
over the *whole* backlog — an O(depth) scan plus a DRR pass over every
queued team.  At deadline-storm depth that scan **is** the control plane's
cost; workers, containers, and the docdb are rounding error next to it.

:func:`run_shard_workload` drives that exact hot path through the real
sharded plane — :class:`~repro.shard.plane.ShardedControlPlane` over a
genuine broker, :class:`~repro.shard.steal.StealingConsumer` executors,
and a :class:`~repro.docdb.sharded.ShardedCollection` for the sampled
submission records — with a *fixed* worker fleet spread round-robin over
``partitions`` home partitions.  Capacity is constant across the ladder;
only the control plane's parallelism changes, so the submissions/s ratio
between partition counts is a clean measure of what sharding buys: each
partition's scheduler scans only its own ~1/N of the backlog over ~1/N
of the teams.

Two determinism guards ride along:

- :func:`control_plane_digest` folds a full ``RaiSystem`` storm's results
  into a SHA-256 digest.  The bench (and the tier-1 smoke) assert that
  the default config *and* ``shards=1`` — the same one-partition plane —
  reproduce :data:`GOLDEN_DIGEST` byte-for-byte.
- Every :class:`ShardResult` carries a delivery-order trace digest, and
  same-seed sharded runs must agree with each other.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.broker.broker import MessageBroker
from repro.broker.message import message_pool, reset_message_ids
from repro.core.job import reset_job_ids
from repro.docdb.database import DocumentDB
from repro.obs.context import reset_obs_ids
from repro.obs.metrics import MetricsRegistry
from repro.sched import JobScheduler, RuntimeEstimator, SchedulerPolicy
from repro.shard import ShardMap, ShardedControlPlane
from repro.sim import Simulator

#: Delivery-order digest of the reference storm.
#: ``control_plane_digest()`` must produce this on the default config and
#: on ``SystemConfig(shards=1)``: both build the one-partition control
#: plane.  Captured when the unsharded control plane was a separate code
#: path and held, without re-capture, when that path was replaced by the
#: one-partition plane.  Re-captured twice, each time for a model change
#: made on purpose.  When the build artifact cache
#: landed: cached resubmission builds re-time and re-place downstream
#: work (before it,
#: 71d365bccfb90a486220a01387e56bc3e232418e239018874a34f5d7808d17ed).
#: When the warm pool began resetting containers on return instead of at
#: acquire: a warm job finishes up to one reset earlier (before it,
#: 715d5ada1b1addc86826badfc41a8b86ebaae8e3a134f785ee2cd5083ad51653).
GOLDEN_DIGEST = \
    "2276af4f8bd2f33d5d965140ec41d39b5b03800f42b580f274afcdcc46912933"


def control_plane_digest(n_teams: int = 6, jobs_per_team: int = 3,
                         num_workers: int = 3, seed: int = 11,
                         config=None):
    """Run a small full-system storm; digest the per-job outcomes.

    Returns ``(hexdigest, sorted statuses, n_results)``.  The digest
    covers job id, final status, worker id, and queue/finish timestamps
    for every submission, sorted by job id — any reordering, re-timing,
    or re-placement of work under a config change shows up here.
    """
    from repro.core.system import RaiSystem

    reset_message_ids()
    reset_job_ids()
    reset_obs_ids()
    message_pool.clear()
    system = RaiSystem.standard(num_workers=num_workers, seed=seed,
                                config=config)
    gap = system.config.rate_limit_seconds + 5.0
    results = []

    def student(team_index: int):
        team = f"team{team_index:02d}"
        client = system.new_client(team=team, username=f"{team}-student")
        client.stage_project({
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
            "main.cu": ("// @rai-sim quality=0.9 impl=im2col\n"
                        + f"// {team}\n" * 40),
        })
        yield system.sim.timeout(2.0 * team_index)
        for k in range(jobs_per_team):
            if k:
                yield system.sim.timeout(gap)
            result = yield from client.submit()
            results.append(result)

    system.run_all([student(i) for i in range(n_teams)])

    digest = hashlib.sha256()
    for r in sorted(results, key=lambda x: x.job_id):
        digest.update(("%s;%s;%s;%r;%r"
                       % (r.job_id, r.status.value, r.worker_id,
                          r.queued_at, r.finished_at)).encode())
    statuses = sorted(set(r.status.value for r in results))
    return digest.hexdigest(), statuses, len(results)


@dataclass(frozen=True)
class ShardScale:
    """One operating point of the shard bench."""

    name: str
    n_teams: int
    n_submissions: int          # total across all teams
    #: Total executor fleet — *not* per partition.  Held constant across
    #: the partition ladder so throughput ratios isolate the control
    #: plane.
    n_workers: int
    worker_slots: int = 4
    #: Mean gap between one team's submissions (sim seconds).  Small, so
    #: the storm front-loads and the backlog actually gets deep.
    mean_think_s: float = 0.05
    #: Mean per-submission service time at an executor slot (sim seconds).
    mean_service_s: float = 0.5
    #: Record one in N completions to the sharded submissions collection.
    docdb_sample: int = 8


SHARD_SMOKE = ShardScale("smoke", n_teams=16, n_submissions=600,
                         n_workers=4, mean_service_s=0.3)
#: The bench tier: a deadline storm deep enough that the single-queue
#: scheduler scan dominates wall time.
SHARD_STORM = ShardScale("storm", n_teams=64, n_submissions=4_000,
                         n_workers=8)


@dataclass
class ShardResult:
    """What one partition-count run reports back to the bench."""

    scale: ShardScale
    partitions: int
    submissions: int
    wall_s: float
    sim_duration_s: float
    trace_digest: str
    routed: List[int] = field(default_factory=list)
    steals: int = 0
    rebalanced: int = 0
    dispatched: int = 0
    peak_queue_depth: int = 0
    docdb_docs: int = 0

    @property
    def submissions_per_s(self) -> float:
        return self.submissions / self.wall_s if self.wall_s else 0.0

    def to_dict(self) -> dict:
        return {
            "scale": {"name": self.scale.name,
                      "n_teams": self.scale.n_teams,
                      "n_submissions": self.scale.n_submissions,
                      "n_workers": self.scale.n_workers},
            "partitions": self.partitions,
            "submissions": self.submissions,
            "wall_s": round(self.wall_s, 3),
            "sim_duration_s": round(self.sim_duration_s, 1),
            "submissions_per_s": round(self.submissions_per_s),
            "routed": self.routed,
            "steals": self.steals,
            "rebalanced": self.rebalanced,
            "dispatched": self.dispatched,
            "peak_queue_depth": self.peak_queue_depth,
            "docdb_docs": self.docdb_docs,
            "trace_digest": self.trace_digest,
        }


def run_shard_workload(scale: ShardScale, partitions: int,
                       seed: int = 408, shard_seed: int = 0,
                       steal_threshold: int = 4) -> ShardResult:
    """Drive one storm through the sharded plane; returns the metrics.

    ``partitions=1`` is the single-queue baseline: one topic, one channel,
    one scheduler instance scanning the whole backlog — the same
    one-partition plane a default deployment runs.
    """
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    reset_message_ids()
    wall_start = time.perf_counter()
    sim = Simulator()
    metrics = MetricsRegistry()
    broker = MessageBroker(sim, metrics=metrics)
    db = DocumentDB(sim, metrics=metrics)

    shard_map = ShardMap(partitions, seed=shard_seed)
    plane = ShardedControlPlane(
        broker, shard_map, metrics=metrics,
        steal_threshold=steal_threshold,
        scheduler_factory=lambda p: JobScheduler(
            lambda: sim.now, SchedulerPolicy(), RuntimeEstimator()))
    submissions = db.shard_collection("submissions", shard_map)
    submissions.create_index("job_id")

    total = scale.n_submissions
    digest = hashlib.sha256()
    done = sim.event()
    state = {"completed": 0, "peak": 0}

    root = np.random.SeedSequence(seed)
    team_seeds = root.spawn(scale.n_teams)
    worker_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=root.entropy, spawn_key=(0x57F,)))

    per_team = total // scale.n_teams
    remainder = total - per_team * scale.n_teams

    def team_proc(idx: int, n_subs: int):
        team = "team%04d" % idx
        _, topic = plane.route(team)
        rng = np.random.default_rng(team_seeds[idx])
        thinks = rng.exponential(scale.mean_think_s, size=n_subs).tolist()
        timeout = sim.timeout
        publish = broker.publish
        base = idx * (per_team + 1)
        for k in range(n_subs):
            yield timeout(thinks[k])
            publish(topic, {"j": base + k, "team": team, "t": sim.now})

    def worker_proc(wid: int, partition: int, service_times: List[float]):
        consumer = plane.consumer(partition)
        timeout = sim.timeout
        update = digest.update
        sample = scale.docdb_sample
        service = iter(service_times)
        while state["completed"] < total:
            msg = consumer.try_get()
            if msg is None:
                msg = yield consumer.get()
                if msg is None:
                    break
            yield timeout(next(service))
            body = msg.body
            now = sim.now
            n = state["completed"] = state["completed"] + 1
            update(b"%d;%d;%r;%d" % (body["j"], wid, now, msg.attempts))
            plane.note_completion(body["team"], now - body["t"])
            if n % sample == 0:
                submissions.insert_one({"job_id": body["j"],
                                        "team": body["team"],
                                        "finished_at": now})
            if n % 256 == 0:
                depth = plane.queue_depth()
                if depth > state["peak"]:
                    state["peak"] = depth
            consumer.ack_release(msg)
            if n >= total:
                done.succeed()
                break
        consumer.close()

    for idx in range(scale.n_teams):
        n_subs = per_team + (1 if idx < remainder else 0)
        if n_subs:
            sim.process(team_proc(idx, n_subs))
    n_slots = scale.n_workers * scale.worker_slots
    for w in range(n_slots):
        # Each slot draws an over-provisioned service-time block up front
        # from the shared worker stream, so the *sequence* of draws is
        # identical regardless of partition count or interleaving.
        block = worker_rng.exponential(
            scale.mean_service_s,
            size=max(64, 4 * total // n_slots)).tolist()
        sim.process(worker_proc(w, w % partitions, block))

    sim.run(until=done)
    wall = time.perf_counter() - wall_start
    return ShardResult(
        scale=scale,
        partitions=partitions,
        submissions=state["completed"],
        wall_s=wall,
        sim_duration_s=sim.now,
        trace_digest=digest.hexdigest(),
        routed=list(plane.router.routed),
        steals=sum(plane.steals_in),
        rebalanced=sum(plane.rebalanced_in),
        dispatched=sum(s.total_dispatched for s in plane.schedulers
                       if s is not None),
        peak_queue_depth=state["peak"],
        docdb_docs=len(submissions),
    )


__all__ = [
    "GOLDEN_DIGEST", "control_plane_digest",
    "ShardScale", "ShardResult", "SHARD_SMOKE", "SHARD_STORM",
    "run_shard_workload",
]
