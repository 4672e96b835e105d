#!/usr/bin/env python
"""A miniature course replay: the Figure 2 / Figure 4 pipeline, small.

Runs the full behavioural course simulation (team formation, credential
emails, the manual G2→P2 provisioning schedule, circadian + deadline
submission behaviour, final submissions) at 1/5 scale so it finishes in
~20 seconds, then prints the two figures.  The benchmarks in
``benchmarks/`` run the same pipeline at the paper's full 176-student
scale.

Run:  python examples/mini_course_replay.py
"""

from repro.analysis import ascii_histogram, ascii_timeline, format_bytes
from repro.workload.behavior import DAY
from repro.workload.course import CourseConfig, CourseSimulation


def main() -> None:
    config = CourseConfig(
        n_students=36,
        n_teams=12,
        duration_days=10.0,
        seed=408,
        final_week_instances=8,
    )
    print(f"replaying: {config.n_students} students, {config.n_teams} "
          f"teams, {config.duration_days:.0f} days ...")
    simulation = CourseSimulation(config)
    result = simulation.run()

    totals = result.totals()
    print(f"\nsubmissions: {totals['submissions']}   "
          f"uploaded: {format_bytes(totals['uploaded_bytes'])}   "
          f"file server: {format_bytes(totals['file_server_bytes'])}   "
          f"fleet cost: ${totals['cost_usd']:.0f}")

    print("\n=== Figure 2 (mini): top team final runtimes, 0.1s bins ===")
    print(ascii_histogram(result.top_runtimes(config.n_teams)))

    window = min(7.0, config.duration_days)
    start = (config.duration_days - window) * DAY
    end = config.duration_days * DAY
    times = [t for t in result.submission_times if start <= t < end]
    print(f"\n=== Figure 4 (mini): submissions/hour, last "
          f"{window:.0f} days ===")
    print(ascii_timeline(times, start, end))

    print("\n=== final leaderboard (top 5) ===")
    for row in simulation.system.ranking.leaderboard(limit=5):
        print(f"  #{row['rank']} {row['team']:<10} "
              f"{row['internal_time']:7.3f}s  "
              f"acc={row['correctness']:.2f}")


if __name__ == "__main__":
    main()
