"""Printing, ``--compare``, ``--selfcheck`` and ``--sensitivity``.

Everything here works on *detail documents*: what one run of one workload
wrote (``harness.run_untraced`` / ``run_traced``), gathered into a result
document ``{"runs": [...]}`` by ``run.run_all``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from typing import Dict, List

from bench import metrics as M
from bench.harness import ROOT, WORK_DIR
from bench.tracing import entry_name, entry_names
from bench.workloads import NOMINAL_SECONDS, WORKLOADS

WORKLOAD_NAMES = list(WORKLOADS)
HOST_METRICS = [m for m in M.END_TO_END if m.clock == "host"]
#: Per-layer metrics that are counts or sim-clock: exact for one seed.
EXACT_LAYER = [m.name for m in M.PER_LAYER if m.clock != "host"]

SELFCHECK_RUNS = 5
SENSITIVITY_SECONDS = 0.3 * NOMINAL_SECONDS
INJECT_MICROS = 500.0


# -- running ------------------------------------------------------------------

def run_child(workload: str, seed: int, seconds: float, trace: int,
              extra=()) -> dict:
    """One run in a fresh subprocess; returns its detail document."""
    os.makedirs(WORK_DIR, exist_ok=True)
    detail_path = os.path.join(
        WORK_DIR, f"detail-{os.getpid()}-{workload}-{trace}.json")
    command = [sys.executable, os.path.join(ROOT, "bench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--detail", detail_path, *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    try:
        if done.returncode != 0:
            return {"workload": workload, "seed": seed, "trace": trace,
                    "correct": False, "error": done.stderr.strip()[-2000:]}
        with open(detail_path) as fh:
            return json.load(fh)
    finally:
        if os.path.exists(detail_path):
            os.remove(detail_path)
        if not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)


def run_all(seed: int, seconds: float, runs: int = 1) -> dict:
    """Every workload, sequentially, each run in its own process."""
    document = {"seed": seed, "seconds": seconds,
                "nominal_seconds": NOMINAL_SECONDS, "runs": []}
    for workload in WORKLOAD_NAMES:
        for _ in range(runs):
            document["runs"].append(run_child(workload, seed, seconds, 0))
        document["runs"].append(run_child(workload, seed, seconds, 1))
    return document


# -- printing -----------------------------------------------------------------

def print_document(document: dict, smoke: bool = False) -> None:
    if smoke:
        print("SMOKE RUN: 5 % of the counts; the outputs are checked, the "
              "timings mean nothing.\n")
    called = set()
    for run in document["runs"]:
        if not run["correct"]:
            print(f"== {run['workload']} (trace {run['trace']}): FAILED, no "
                  f"metrics\n{run['error']}\n")
            continue
        if run["trace"]:
            called |= set(run["entry_points_called"])
            print_layers(run)
        else:
            print_end_to_end(run)
    traced = [r for r in document["runs"] if r["correct"] and r["trace"]]
    if {r["workload"] for r in traced} == set(WORKLOAD_NAMES):
        idle = entry_names() - called
        print(f"entry points never called on any workload: "
              f"{sorted(idle) or 'none'}")


def print_end_to_end(run: dict) -> None:
    print(f"== {run['workload']}  seed {run['seed']}  "
          f"{run['attempted']} submissions, {run['failed']} failed, "
          f"{run['samples']} latency samples  digest {run['digest'][:12]}")
    for metric in M.END_TO_END:
        value = run["metrics"][metric.name]
        print(f"  {metric.name:24s} {value:14.6f} {metric.unit:3s} "
              f"[{metric.clock}]")
    repeats = ", ".join(f"{s:.3f}" for s in run["host_s_repeats"])
    print(f"  timed repeats: {repeats} s   (max-min)/median "
          f"{run['host_spread']:.3f}{'  NOISY' if run['noisy'] else ''}\n")


def print_layers(run: dict) -> None:
    values = run["metrics"]
    print(f"== {run['workload']}  traced pass  digest {run['digest'][:12]}  "
          f"overhead {values['trace.overhead_share']:.1%}  unattributed "
          f"{values['trace.unattributed_share']:.1%}")
    for metric in M.PER_LAYER:
        print(f"  {metric.name:38s} {values[metric.name]:14.4f} "
              f"{metric.unit}")
    print()


# -- compare ------------------------------------------------------------------

def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def by_workload(document: dict, trace: int) -> Dict[str, List[dict]]:
    groups = defaultdict(list)
    for run in document["runs"]:
        if run["correct"] and run["trace"] == trace:
            groups[run["workload"]].append(run)
    return groups


def model_differences(a: dict, b: dict) -> List[str]:
    """Sim-clock metrics, counts and digests must be equal run for run when
    the seed is: a change meant only to speed the simulator may not move
    them."""
    out = []
    for trace, names in ((0, M.SIM_METRICS), (1, EXACT_LAYER)):
        runs_a, runs_b = by_workload(a, trace), by_workload(b, trace)
        for workload in WORKLOAD_NAMES:
            seeds_a = {r["seed"]: r for r in runs_a.get(workload, [])}
            seeds_b = {r["seed"]: r for r in runs_b.get(workload, [])}
            for seed in sorted(set(seeds_a) & set(seeds_b)):
                ra, rb = seeds_a[seed], seeds_b[seed]
                if ra["digest"] != rb["digest"]:
                    out.append(f"{workload} seed {seed}: digest "
                               f"{ra['digest'][:12]} != {rb['digest'][:12]}")
                if ra["attempted"] != rb["attempted"]:
                    out.append(f"{workload} seed {seed}: attempted "
                               f"{ra['attempted']} != {rb['attempted']}")
                for name in names:
                    va, vb = ra["metrics"][name], rb["metrics"][name]
                    if va != vb:
                        out.append(f"{workload} seed {seed}: {name} "
                                   f"{va!r} != {vb!r}")
    return out


def compare(path_a: str, path_b: str) -> int:
    a, b = load(path_a), load(path_b)
    runs_a, runs_b = by_workload(a, 0), by_workload(b, 0)
    print(f"{'workload':17s} {'metric':22s} {'A q1/median/q3':>34s} "
          f"{'B q1/median/q3':>34s} {'bound':>6s}  verdict")
    regressed = False
    for workload in WORKLOAD_NAMES:
        if not runs_a.get(workload) or not runs_b.get(workload):
            print(f"{workload:17s} missing on one side")
            continue
        for metric in M.END_TO_END:
            va = [r["metrics"][metric.name] for r in runs_a[workload]]
            vb = [r["metrics"][metric.name] for r in runs_b[workload]]
            result = M.verdict(va, vb, metric)
            regressed |= result == "regressed"
            fmt = "/".join(["{:.5g}"] * 3)
            print(f"{workload:17s} {metric.name:22s} "
                  f"{fmt.format(*M.quartiles(va)):>34s} "
                  f"{fmt.format(*M.quartiles(vb)):>34s} "
                  f"{metric.bound:6.2f}  {result}")
        failed_a = sum(r["failed"] for r in runs_a[workload])
        failed_b = sum(r["failed"] for r in runs_b[workload])
        if failed_b > failed_a:
            regressed = True
            print(f"{workload:17s} failed submissions {failed_a} -> "
                  f"{failed_b}: regressed")
    moved = model_differences(a, b)
    print("\nmodel (sim-clock metrics, counts, digests for equal seeds): "
          + ("identical" if not moved else "MOVED"))
    for line in moved:
        print("  " + line)
    return 1 if regressed else 0


# -- selfcheck (A/A) ----------------------------------------------------------

def selfcheck(seed: int) -> int:
    """Two interleaved sets of runs of one commit must agree: exactly on
    the model, within each bound on the host."""
    sets = ({"runs": []}, {"runs": []})
    for workload in WORKLOAD_NAMES:
        for i in range(SELFCHECK_RUNS):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                sets[side]["runs"].append(
                    run_child(workload, seed, NOMINAL_SECONDS, 0))
        for side in (0, 1):
            sets[side]["runs"].append(
                run_child(workload, seed, NOMINAL_SECONDS, 1))
    problems = [f"run failed: {r['workload']}: {r['error']}"
                for s in sets for r in s["runs"] if not r["correct"]]
    problems += model_differences(*sets)
    print(f"{'workload':17s} {'metric':16s} {'median A':>12s} "
          f"{'median B':>12s} {'B vs A':>8s} {'IQR/median A, B':>18s} "
          f"{'bound':>6s}")
    runs_a, runs_b = by_workload(sets[0], 0), by_workload(sets[1], 0)
    for workload in WORKLOAD_NAMES:
        for metric in HOST_METRICS:
            va = [r["metrics"][metric.name] for r in runs_a[workload]]
            vb = [r["metrics"][metric.name] for r in runs_b[workload]]
            ma, mb = statistics.median(va), statistics.median(vb)
            shift = abs(mb - ma) / ma
            print(f"{workload:17s} {metric.name:16s} {ma:12.4f} {mb:12.4f} "
                  f"{shift:8.3%} {M.iqr_share(va):9.3%}"
                  f"{M.iqr_share(vb):9.3%} {metric.bound:6.2f}")
            if shift > metric.bound:
                problems.append(f"{workload} {metric.name}: set medians "
                                f"differ by {shift:.1%} > {metric.bound:.0%}")
    for workload in WORKLOAD_NAMES:
        held_out = run_child(workload, seed + 1, NOMINAL_SECONDS, 0)
        if not held_out["correct"]:
            problems.append(f"held-out seed {seed + 1}: {workload}: "
                            f"{held_out['error']}")
    print("\nselfcheck: " + ("PASS" if not problems else "FAIL"))
    for line in problems:
        print("  " + line)
    return 1 if problems else 0


# -- sensitivity --------------------------------------------------------------

INJECTIONS = (
    # workload, entry point slowed down, the layer whose self time must rise
    ("overhead_floor", "repro.docdb.database:Collection.insert_one", "docdb"),
    ("deadline_backlog", "repro.sched.scheduler:JobScheduler.select",
     "sched"),
    ("resubmit_hits", "repro.storage.buildcache:BuildCache.lookup",
     "buildcache"),
)


def sensitivity(seed: int) -> int:
    """Proof the benchmark measures the program: a known cost injected into
    one layer, and one public knob turned, must each show where predicted
    and nowhere else."""
    problems: List[str] = []

    def check(ok: bool, text: str) -> None:
        print(("  ok    " if ok else "  FAIL  ") + text)
        if not ok:
            problems.append(text)

    def run(workload, trace, *extra):
        detail = run_child(workload, seed, SENSITIVITY_SECONDS, trace, extra)
        if not detail["correct"]:
            raise SystemExit(f"{workload}: {detail['error']}")
        return detail

    for workload, target, layer in INJECTIONS:
        inject = ("--inject", f"{target}={INJECT_MICROS}")
        base, slow = run(workload, 0), run(workload, 0, *inject)
        base_t, slow_t = run(workload, 1), run(workload, 1, *inject)
        calls = slow_t["calls"][entry_name(target)] / slow_t["attempted"]
        expected = calls * INJECT_MICROS
        print(f"{workload}: {INJECT_MICROS:.0f} us in {entry_name(target)}, "
              f"{calls:.2f} calls/submission -> expect +{expected:.0f} "
              f"us/submission")
        rise = (slow["metrics"]["host_us_per_sub"]
                - base["metrics"]["host_us_per_sub"])
        check(abs(rise - expected) <= 0.25 * expected,
              f"host_us_per_sub rose by {rise:.0f} us")
        own = f"{layer}.self_us_per_sub"
        rise = slow_t["metrics"][own] - base_t["metrics"][own]
        check(abs(rise - expected) <= 0.25 * expected,
              f"{own} rose by {rise:.0f} us")
        for metric in M.PER_LAYER:
            if metric.name.endswith("self_us_per_sub") and metric.name != own:
                was = base_t["metrics"][metric.name]
                other = slow_t["metrics"][metric.name] - was
                # Under 10 % of the injected cost, or of the layer's own
                # self time where that is the larger (its host noise).
                if abs(other) >= 0.10 * max(expected, was):
                    check(False, f"{metric.name} moved by {other:.0f} us")
        check(all(slow["metrics"][n] == base["metrics"][n]
                  for n in M.SIM_METRICS)
              and slow["digest"] == base["digest"] == slow_t["digest"],
              "sim-clock metrics and digest unchanged")

    knob = ("--set", "container_reset_seconds=0.4")
    base, slow = run("resubmit_hits", 0), run("resubmit_hits", 0, *knob)
    rise = (slow["metrics"]["submit_p50_sim_s"]
            - base["metrics"]["submit_p50_sim_s"])
    print("container_reset_seconds 0.2 -> 0.4")
    check(abs(rise - 0.2) <= 0.05 * 0.2,
          f"resubmit_hits submit_p50_sim_s rose by {rise:.4f} s (expect 0.2)")
    check(slow["attempted"] == base["attempted"],
          "resubmit_hits submission count unchanged")
    base, slow = run("deadline_backlog", 0), run("deadline_backlog", 0, *knob)
    for name in ("slot_s_per_sub", "queue_wait_p99_sim_s"):
        check(slow["metrics"][name] > base["metrics"][name],
              f"deadline_backlog {name}: {base['metrics'][name]:.4f} -> "
              f"{slow['metrics'][name]:.4f} s")
    check(slow["attempted"] == base["attempted"],
          "deadline_backlog submission count unchanged")
    print("\nsensitivity: " + ("PASS" if not problems else "FAIL"))
    return 1 if problems else 0
