"""The benchmark's one command.

``python3 bench/run.py`` runs every workload, each in a fresh subprocess:
an untraced run (k = 3 repeats) for the end-to-end metrics and a traced run
for the per-layer metrics, prints both by name and unit, and writes the
result document.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`` is
one run of one workload in this process; its last line of output is the
result object the driver reads.  ``--seconds`` over the nominal
``run_seconds`` of ``BENCHMARK.json`` scales the submission *counts*; the
benchmark never sizes itself by a clock.

``--smoke`` (5 % counts, timings meaningless), ``--sensitivity``,
``--selfcheck`` and ``--compare A.json B.json`` are described in
``bench/README.md``.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse     # noqa: E402
import json         # noqa: E402
import os           # noqa: E402
import sys          # noqa: E402

# One host thread: NumPy's BLAS would otherwise spin a worker per core
# (2x the CPU time for the same wall on this box, and noisier).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("bench/run.py: the program's source (src/repro) is not in "
             "this checkout; nothing to measure")
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

DEFAULT_SEED = 408
SMOKE_SCALE = 0.05


def main(argv=None) -> int:
    from bench.workloads import NOMINAL_SECONDS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, here")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="scales counts by seconds / run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="5 %% of the counts; timings mean nothing")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workload mode: untraced runs per workload")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--inject", help=argparse.SUPPRESS)
    parser.add_argument("--set", action="append", default=[],
                        help=argparse.SUPPRESS)
    parser.add_argument("--spans", help="traced run: write span JSONL here")
    parser.add_argument("--sensitivity", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = NOMINAL_SECONDS * SMOKE_SCALE

    if args.workload:
        return run_here(args)
    from bench import report
    if args.compare:
        return report.compare(*args.compare)
    if args.sensitivity:
        return report.sensitivity(args.seed)
    if args.selfcheck:
        return report.selfcheck(args.seed)
    document = report.run_all(args.seed, args.seconds, args.runs)
    report.print_document(document, smoke=args.smoke)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1)
    return 0 if all(run["correct"] for run in document["runs"]) else 1


def run_here(args) -> int:
    """One run of one workload in this process (what the driver calls)."""
    from bench import harness, metrics
    from bench.workloads import NOMINAL_SECONDS, WORKLOADS

    import_s = time.perf_counter() - PROCESS_STARTED
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    scale = args.seconds / NOMINAL_SECONDS
    # --sensitivity only: a WorkerConfig knob turned, a delay injected.
    overrides = {key: float(value) for key, _, value
                 in (item.partition("=") for item in args.set)} or None
    delay = None
    if args.inject:
        target, _, micros = args.inject.rpartition("=")
        delay = (target, float(micros))
    try:
        if args.trace:
            detail = harness.run_traced(workload, args.seed, scale,
                                        overrides, delay, args.spans)
            table = metrics.PER_LAYER
        else:
            detail = harness.run_untraced(workload, args.seed, scale,
                                          import_s, overrides, delay)
            table = metrics.END_TO_END
    except harness.GateError as exc:
        # A failed check prints no metrics for the workload.
        print(f"{args.workload}: validity gate failed: {exc}",
              file=sys.stderr)
        return 1
    detail["trace"] = args.trace
    detail["correct"] = True
    if args.detail:
        with open(args.detail, "w") as fh:
            json.dump(detail, fh)
    print(json.dumps({
        "correct": True, "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics.as_json(detail["metrics"], table)}))
    remove_if_empty(harness.WORK_DIR)
    return 0


def remove_if_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
