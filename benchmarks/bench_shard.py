"""Sharded control plane — submission throughput across partition counts.

Not a paper figure: this bench tracks what partitioning the control plane
buys (ISSUE 8).  The single-queue plane runs the fair-share scheduler's
O(depth) scan over the whole backlog on every dispatch; sharding splits
backlog *and* team set N ways, so each of the N independent schedulers
scans ~1/N of both.  The bench drives the same deadline storm — fixed
executor fleet, fixed arrival process — through 1, 2, 4, and 8
partitions and reports wall-clock submissions/s, then asserts the
acceptance floors: >= 3x throughput at 8 partitions, and the two
determinism contracts (the default config and ``shards=1`` — one
one-partition plane — reproduce the golden digest byte-for-byte;
same-seed sharded runs agree with each other).

Methodology notes:

- Each ladder point runs in a fresh interpreter (one subprocess per
  partition count, best-of-``reps`` interleaved across the ladder), for
  the same reason as ``bench_kernel``: shared-heap runs inherit
  allocator state from whatever ran before them.
- The executor fleet does **not** grow with the partition count — eight
  workers serve the storm at every ladder point, spread round-robin over
  the partitions — so the ratio isolates control-plane parallelism, not
  added capacity.

Run: ``pytest benchmarks/bench_shard.py -s``
"""

import json
import os
import subprocess
import sys

from benchmarks.conftest import print_banner
from repro.core.config import SystemConfig
from repro.workload.shardbench import (
    GOLDEN_DIGEST,
    SHARD_STORM,
    control_plane_digest,
)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OUT_PATH = os.path.join(_REPO_ROOT, "BENCH_shard.json")

_LADDER = (1, 2, 4, 8)

_RUN_SNIPPET = (
    "import json, sys\n"
    "from repro.workload.shardbench import run_shard_workload, SHARD_STORM\n"
    "r = run_shard_workload(SHARD_STORM, int(sys.argv[1]))\n"
    "print(json.dumps(r.to_dict()))\n"
)


def _run_storm(partitions: int) -> dict:
    """One storm at ``partitions`` in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.join(_REPO_ROOT, "src")
    prev = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + prev if prev else "")
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_SNIPPET, str(partitions)],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_ladder(reps: int = 2):
    """Best-of-``reps`` walls per partition count, interleaved.

    Interleaving spreads a slow patch of the machine across the whole
    ladder instead of biasing one point; every rep's digest must match
    the kept run's (same seed, fresh interpreter — the determinism
    contract for the sharded path).
    """
    best = {}
    for _ in range(reps):
        for p in _LADDER:
            run = _run_storm(p)
            kept = best.get(p)
            if kept is not None:
                assert run["trace_digest"] == kept["trace_digest"], p
            if kept is None or run["wall_s"] < kept["wall_s"]:
                best[p] = run
    return [best[p] for p in _LADDER]


def test_shard_throughput(benchmark):
    def run_all():
        ladder = _run_ladder()
        # Full-system digest checks are cheap; run them in-process.
        digests = {
            "default": control_plane_digest(),
            "shards_1": control_plane_digest(config=SystemConfig(shards=1)),
            "shards_4_a": control_plane_digest(
                config=SystemConfig(shards=4)),
            "shards_4_b": control_plane_digest(
                config=SystemConfig(shards=4)),
        }
        return ladder, digests

    ladder, digests = benchmark.pedantic(run_all, rounds=1, iterations=1)
    base = ladder[0]

    print_banner("Sharded control plane — submission throughput 1 -> 8 "
                 "partitions (fixed fleet)")
    print(f"storm: {SHARD_STORM.n_teams} teams, "
          f"{SHARD_STORM.n_submissions:,} submissions, "
          f"{SHARD_STORM.n_workers} workers x {SHARD_STORM.worker_slots} "
          f"slots, peak backlog {base['peak_queue_depth']:,}")
    print(f"\n{'parts':<7}{'wall s':>8}{'subs/s':>9}{'speedup':>9}"
          f"{'steals':>8}{'routed (per partition)':>28}")
    for run in ladder:
        speedup = run["submissions_per_s"] / base["submissions_per_s"]
        routed = ",".join(str(r) for r in run["routed"])
        print(f"p{run['partitions']:<6}{run['wall_s']:>8.2f}"
              f"{run['submissions_per_s']:>9,}{speedup:>8.2f}x"
              f"{run['steals']:>8}{routed:>28}")

    p8 = ladder[-1]
    p8_speedup = p8["submissions_per_s"] / base["submissions_per_s"]
    print(f"\nshards=1 golden digest: "
          f"{'MATCH' if digests['shards_1'][0] == GOLDEN_DIGEST else 'DIFF'}")

    # --- acceptance floors (ISSUE 8) -------------------------------------
    # >= 3x submission throughput at 8 partitions vs the single queue.
    assert p8_speedup >= 3.0, p8_speedup
    # Every ladder point completed the whole storm, work-stealing active
    # on every multi-partition point.
    for run in ladder:
        assert run["submissions"] == SHARD_STORM.n_submissions
        if run["partitions"] > 1:
            assert run["steals"] > 0, run["partitions"]
    # Determinism: the one-partition plane reproduces the golden digest,
    # and a multi-partition plane is reproducible run-to-run.
    assert digests["default"][0] == GOLDEN_DIGEST
    assert digests["shards_1"][0] == GOLDEN_DIGEST
    assert digests["shards_4_a"] == digests["shards_4_b"]
    # Sharding may reorder deliveries relative to the single queue (that
    # is the point), but never loses or fails work.
    assert digests["shards_4_a"][1] == ["succeeded"]

    payload = {
        "bench": "shard",
        "source": "benchmarks/bench_shard.py",
        "storm": {"n_teams": SHARD_STORM.n_teams,
                  "n_submissions": SHARD_STORM.n_submissions,
                  "n_workers": SHARD_STORM.n_workers,
                  "worker_slots": SHARD_STORM.worker_slots},
        "ladder": ladder,
        "speedup_vs_p1": {
            f"p{run['partitions']}": round(
                run["submissions_per_s"] / base["submissions_per_s"], 2)
            for run in ladder},
        "determinism": {
            "golden_digest": GOLDEN_DIGEST,
            "default_matches_golden":
                digests["default"][0] == GOLDEN_DIGEST,
            "shards_1_matches_golden":
                digests["shards_1"][0] == GOLDEN_DIGEST,
            "shards_4_reproducible":
                digests["shards_4_a"] == digests["shards_4_b"],
            "shards_4_digest": digests["shards_4_a"][0],
        },
    }
    with open(_OUT_PATH, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"\nwrote {_OUT_PATH}")
