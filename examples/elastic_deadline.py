#!/usr/bin/env python
"""Elastic provisioning through a deadline burst (§VII, Resource Usage).

A compressed version of the course's provisioning story: light load on a
couple of cheap G2 instances, then a deadline burst absorbed by the
reactive autoscaler launching single-job P2 instances — with queue depth,
fleet size, and cost traced hour by hour.

Run:  python examples/elastic_deadline.py
"""

from repro.cluster import Autoscaler, AutoscalerPolicy, CostReport, Provisioner
from repro.core.job import JobStatus
from repro.core.system import RaiSystem

HOUR = 3600.0

#: Mid-project teams benchmarking against the FULL dataset — the heavy
#: jobs (tens of seconds each) that actually pressure the fleet.
BENCH_BUILD_FILE = """\
rai:
  version: 0.1
  image: webgpu/rai:root
commands:
  build:
    - cmake /src
    - make
    - ./ece408 /data/testfull.hdf5 /data/model.hdf5 10000
"""


def files_for(quality: float) -> dict:
    return {
        "main.cu": f"// @rai-sim quality={quality:.2f} impl=analytic\n",
        "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
        "rai-build.yml": BENCH_BUILD_FILE,
    }


def main() -> None:
    system = RaiSystem(seed=99)
    provisioner = Provisioner(system)
    policy = AutoscalerPolicy(min_instances=2, max_instances=16, step=3,
                              check_interval=120.0,
                              scale_in_cooldown=1800.0)
    autoscaler = Autoscaler(system, provisioner, policy)
    system.sim.process(autoscaler.run())

    results = []

    def team_process(sim, i, quality, submit_times):
        client = system.new_client(team=f"team-{i:02d}")
        client.stage_project(files_for(quality))
        for at in submit_times:
            yield sim.timeout(max(0.0, at - sim.now))
            result = yield from client.submit()
            results.append(result)
            yield sim.timeout(35.0)   # stay above the 30 s rate limit

    # 30 teams; 2 quiet submissions early, then everyone piles in during
    # a 20-minute pre-deadline window, benchmarking the full dataset
    # (~60-120 s per job) — far beyond what 2 workers can absorb.
    rng = system.rng.stream("example")
    for i in range(30):
        quality = float(rng.uniform(0.08, 0.35))
        quiet = sorted(rng.uniform(0, 3 * HOUR, size=2))
        burst = sorted(rng.uniform(4 * HOUR, 4 * HOUR + 1200.0, size=6))
        system.sim.process(
            team_process(system.sim, i, quality,
                         list(quiet) + list(burst)))

    def reporter(sim):
        print(f"{'hour':>4} {'queue':>6} {'fleet':>6} {'done':>6} "
              f"{'cost':>9}")
        while sim.now < 7 * HOUR:
            yield sim.timeout(0.5 * HOUR)
            done = sum(1 for r in results if r.finished_at is not None)
            print(f"{sim.now / HOUR:4.1f} {system.queue_depth():6d} "
                  f"{len(provisioner.live_instances):6d} {done:6d} "
                  f"${provisioner.total_cost():8.2f}")

    system.sim.process(reporter(system.sim))
    system.run(until=8 * HOUR)

    ok = sum(1 for r in results if r.status is JobStatus.SUCCEEDED)
    waits = [r.queue_wait for r in results if r.queue_wait is not None]
    print(f"\nsubmissions served: {ok}/{len(results)}")
    print(f"median queue wait:  {sorted(waits)[len(waits) // 2]:.1f}s; "
          f"max: {max(waits):.1f}s")
    print(CostReport.collect(provisioner).render())
    print(f"autoscaler decisions: "
          f"{[(d['action'], round(d['t'] / HOUR, 1)) for d in autoscaler.decisions]}")


if __name__ == "__main__":
    main()
