"""Figure 2 — histogram of the top-30 team final runtimes.

Paper: "The histogram plots the distribution of the top 30 team runtimes.
Each bin in the histogram is 0.1 second interval.  For example, 5 teams
had a runtime between 0.4 and 0.5 seconds.  Most teams fell within the 1
second runtime.  The slowest submission took 2 minutes to complete."

Shape expectations asserted: the top-30 mass sits under ~1 s, the mode
bins lie between 0.2 and 1.0 s, and the slowest *final submission in the
class* reaches minutes while the fastest cluster is a few tenths of a
second.
"""

from benchmarks.conftest import print_banner
from repro.analysis import ascii_histogram, runtime_histogram


def test_fig2_top30_runtime_histogram(benchmark, course_result):
    simulation, result = course_result

    # Top 30, or every team when a small course has fewer.
    n = min(30, len(simulation.teams))

    def regenerate():
        times = result.top_runtimes(n)
        return times, runtime_histogram(times)

    times, rows = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    print_banner(f"Figure 2 — top-{n} team final runtimes "
                 "(0.1 s bins)")
    print(ascii_histogram(times))
    print("\nbins (lo, hi, teams):")
    for row in rows[:15]:
        print(f"  {row['lo']:5.1f}-{row['hi']:4.1f}s : {row['teams']}")

    all_finals = simulation.system.ranking.top_runtimes(10 ** 6)
    print(f"\ntop-{n} range: {min(times):.2f}s .. {max(times):.2f}s")
    print(f"class slowest final: {max(all_finals):.1f}s "
          f"(paper: ~120 s)")
    under_1s = sum(1 for t in times if t < 1.0)
    print(f"top-{n} under 1 s: {under_1s}/{n} (paper: 'most teams')")

    # --- shape assertions -------------------------------------------------
    assert len(times) == n
    assert 2 * under_1s >= n                   # "most teams within 1 second"
    assert min(times) >= 0.1                   # physical floor
    assert min(times) < 0.6                    # a fast leading cluster
    assert max(all_finals) > 30.0              # a slow tail exists
    assert max(all_finals) < 30 * 60.0         # ...but everyone beat the
    #                                            serial baseline
