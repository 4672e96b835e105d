"""The four workloads: generated inputs, public configuration, client loops.

A workload is only *inputs* (project files, ``rai-build.yml``, an arrival
schedule) and *public configuration* (``SystemConfig``, ``WorkerConfig``,
``start_observability``, ``attach_durability``).  Every job is executed by
the program's own ``RaiWorker``; nothing here stands in for a layer.

Sizes are counts.  ``scale`` (``--seconds`` over the nominal
``run_seconds``) multiplies the number of clients (or, for the open loop,
the length of the arrival window); it never looks at a clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster import Provisioner
from repro.core.config import SystemConfig, WorkerConfig
from repro.core.job import JobKind, JobResult, JobStatus
from repro.core.system import RaiSystem

#: ``run_seconds`` of BENCHMARK.json: the ``--seconds`` at which the counts
#: below apply as written.
NOMINAL_SECONDS = 20

# -- generated project content ------------------------------------------------

ECHO_BUILD_YAML = """\
rai:
  version: '0.1'
  image: webgpu/rai:root
commands:
  build:
    - echo ok
"""


def scaffold_files() -> Dict[str, object]:
    """Course starter code every project shares verbatim (the cross-team
    dedup opportunity) plus the two files a final submission must carry."""
    files: Dict[str, object] = {
        "CMakeLists.txt": "add_executable(ece408 main.cu)\n" * 40,
        "USAGE": "cmake /src && make && ./ece408 /data/test10.hdf5\n",
        "report.pdf": b"%PDF-1.4" + bytes(6144),
    }
    for i in range(4):
        files[f"support/common_{i}.h"] = "// ECE408 course scaffold\n" * 64
    return files


def main_cu(owner: str, rev: int, lines: int, impl: str = "analytic",
            fault: str = "") -> str:
    """The student's kernel source; the ``@rai-sim`` marker is what the
    simulated toolchain reads.  Unique per owner and revision; ``lines``
    is drawn per owner, so projects (and their transfer times) differ."""
    marker = f"// @rai-sim quality=0.8 impl={impl} {fault}".rstrip()
    return (f"{marker}\n#define TILE_WIDTH 16\n"
            + f"// {owner} rev {rev}\n" * lines)


def tuning_cfg(owner: str, rev: int) -> str:
    """A file no build command reads; named to sort last so the edit stays
    in the archive's tail chunk."""
    return f"# {owner} attempt {rev}\nBLOCK_DIM={8 + rev % 24}\n"


def tiny_project(owner: str, lines: int) -> Dict[str, object]:
    return {"rai-build.yml": ECHO_BUILD_YAML,
            "main.cu": f"// {owner}\n" * lines + "int main() { return 0; }\n",
            "notes.txt": f"{owner} 0\n"}


def spread(rng: np.random.Generator, count: int, low: float,
           high: float) -> np.ndarray:
    """``count`` values evenly spread over [low, high), in seeded order.

    Every seed draws the same multiset, so what a seed changes is who gets
    which value and when -- not how much work or think time there is in
    total.  Seeds then differ by interleaving, not by sampling noise in the
    load itself, and a metric's spread over seeds stays small enough for
    its bound to mean something."""
    return rng.permutation(low + (high - low) * (np.arange(count) + 0.5)
                           / count)


def spread_exponential(rng: np.random.Generator, count: int,
                       mean: float) -> np.ndarray:
    """The same for Exp(mean): its quantiles at (i + 0.5) / count."""
    return rng.permutation(
        -mean * np.log(1.0 - (np.arange(count) + 0.5) / count))


# -- records ------------------------------------------------------------------

@dataclass
class Submission:
    """One attempted submission and what the generator meant it to do."""

    first: bool                 # the client's first submission
    origin: float               # sim time it was issued (closed) or due (open)
    expect: JobStatus
    lateness: float = 0.0       # open loop: how late the generator sent it
    result: Optional[JobResult] = None


@dataclass
class Step:
    """One round of a closed-loop client: think, edit, submit."""

    think: float
    files: Dict[str, object]
    expect: JobStatus = JobStatus.SUCCEEDED
    kind: JobKind = JobKind.RUN


@dataclass
class Prepared:
    """What ``Workload.prepare`` hands the harness to run and to check."""

    drivers: List                   # generators for ``RaiSystem.run_all``
    records: List[Submission]
    attempted: int
    durability_dir: Optional[str] = None


def closed_loop(system: RaiSystem, client, start: float, steps: List[Step],
                records: List[Submission]):
    """A user who submits, waits for End, thinks, edits, and submits again."""
    sim = system.sim
    if start:
        yield sim.timeout(start)
    for index, step in enumerate(steps):
        if step.think:
            yield sim.timeout(step.think)
        client.stage_project(step.files)
        record = Submission(index == 0, sim.now, step.expect)
        records.append(record)
        record.result = yield from client.submit(kind=step.kind)
        if step.kind is JobKind.SUBMIT:
            client.check_ranking()


def scaled(count: int, scale: float, floor: int = 2) -> int:
    return max(floor, int(round(count * scale)))


# -- workloads ----------------------------------------------------------------

IMAGE = "webgpu/rai:root"


@dataclass
class Workload:
    name: str
    why: str
    workers: int
    slots: int
    config: Callable[[], SystemConfig]
    plan: Callable                              # (rng, scale) -> plan
    prepare: Callable                           # (system, plan, tmpdir) -> Prepared
    #: A deployment leased minutes ago: instances come from the
    #: Provisioner (so fleet cost exists and usage attribution has
    #: something real to conserve) and their image caches are empty.
    #: Otherwise the fleet is long-running: the operator has pulled the
    #: course image on every worker before the first submission.
    fresh_fleet: bool = False

    def build(self, seed: int, overrides: Optional[dict] = None) -> RaiSystem:
        """The deployment, from public constructors only.  ``overrides``
        are ``WorkerConfig`` fields (``--sensitivity`` turns one knob)."""
        system = RaiSystem(seed=seed, config=self.config())
        if self.fresh_fleet:
            if overrides:
                raise ValueError("leased workers take their instance's config")
            Provisioner(system).launch_many(
                self.workers, instance_type="p2.xlarge",
                max_concurrent_jobs=self.slots, boot_delay=0.0)
            return system
        wconf = WorkerConfig(max_concurrent_jobs=self.slots,
                             **(overrides or {}))
        for _ in range(self.workers):
            runtime = system.add_worker(wconf).runtime
            runtime.destroy_container(runtime.create_container(IMAGE))
        return system


# course_mix -------------------------------------------------------------------

COURSE_TEAMS = 58
COURSE_ROUNDS = 18              # 16 development runs + 2 final submissions
COURSE_COMPILE_ERROR_SHARE = 0.06
COURSE_CRASH_SHARE = 0.04
COURSE_CHECKPOINT_SECONDS = 600.0


def _course_plan(rng: np.random.Generator, scale: float):
    teams = scaled(COURSE_TEAMS, scale)
    dev_rounds = COURSE_ROUNDS - 2
    resubmissions = [(t, r) for t in range(teams)
                     for r in range(1, COURSE_ROUNDS)]
    # Faults land on development resubmissions; the round after a fault
    # always repairs main.cu, so no two consecutive rounds are faulty.
    total = teams * COURSE_ROUNDS
    wanted = {"compile=error": int(round(COURSE_COMPILE_ERROR_SHARE * total)),
              "runtime=crash": int(round(COURSE_CRASH_SHARE * total))}
    faults: Dict[tuple, str] = {}
    order = [resubmissions[i] for i in rng.permutation(len(resubmissions))]
    for kind, count in wanted.items():
        for t, r in order:
            if count == 0:
                break
            if r >= dev_rounds or any((t, r + d) in faults
                                      for d in (-1, 0, 1)):
                continue
            faults[(t, r)] = kind
            count -= 1
    # Exactly half of all resubmissions edit main.cu: the faulty ones, the
    # repairs after them, and as many voluntary edits as make up the rest.
    edits_source = set(faults) | {(t, r + 1) for t, r in faults}
    for slot in order:
        if len(edits_source) >= len(resubmissions) // 2:
            break
        edits_source.add(slot)
    lines = spread(rng, teams, 100, 400).astype(int)
    starts = spread(rng, teams, 0.0, 61.0)
    plans = []
    for t in range(teams):
        owner = f"team{t:02d}"
        files = scaffold_files()
        files["main.cu"] = main_cu(owner, 0, lines[t])
        files["zz_tuning.cfg"] = tuning_cfg(owner, 0)
        steps = [Step(0.0, files)]
        thinks = 31.0 + spread_exponential(rng, COURSE_ROUNDS - 1, 30.0)
        for r in range(1, COURSE_ROUNDS):
            fault = faults.get((t, r), "")
            edit = ({"main.cu": main_cu(owner, r, lines[t], fault=fault)}
                    if (t, r) in edits_source else
                    {"zz_tuning.cfg": tuning_cfg(owner, r)})
            steps.append(Step(
                think=float(thinks[r - 1]), files=edit,
                expect=JobStatus.FAILED if fault else JobStatus.SUCCEEDED,
                kind=JobKind.SUBMIT if r >= dev_rounds else JobKind.RUN))
        plans.append((owner, float(starts[t]), steps))
    return plans


def _course_prepare(system: RaiSystem, plan, tmpdir: str) -> Prepared:
    system.start_observability()
    system.attach_durability(tmpdir)
    system.start_checkpointer(interval=COURSE_CHECKPOINT_SECONDS)
    records: List[Submission] = []
    drivers = []
    for owner, start, steps in plan:
        client = system.new_client(team=owner, username=f"{owner}-lead")
        drivers.append(closed_loop(system, client, start, steps, records))
    return Prepared(drivers, records, sum(len(p[2]) for p in plan),
                    durability_dir=tmpdir)


# resubmit_hits ----------------------------------------------------------------

HITS_STUDENTS = 40
HITS_ROUNDS = 26


def _hits_plan(rng: np.random.Generator, scale: float):
    students = scaled(HITS_STUDENTS, scale)
    lines = spread(rng, students, 100, 400).astype(int)
    offsets = spread(rng, students, 0.0, 0.4)
    plans = []
    for i in range(students):
        owner = f"stu{i:03d}"
        files = scaffold_files()
        # Every 4th student's binary really runs the NumPy CNN on test10.
        files["main.cu"] = main_cu(
            owner, 0, lines[i], impl="im2col" if i % 4 == 0 else "analytic")
        files["zz_tuning.cfg"] = tuning_cfg(owner, 0)
        steps = [Step(0.0, files)]
        # Paced by the 30 s rate limit: resubmit as soon as it allows.
        thinks = 30.0 + spread(rng, HITS_ROUNDS - 1, 0.2, 2.0)
        for r in range(1, HITS_ROUNDS):
            steps.append(Step(float(thinks[r - 1]),
                              {"zz_tuning.cfg": tuning_cfg(owner, r)}))
        plans.append((owner, 0.5 * i + float(offsets[i]), steps))
    return plans


def _solo_prepare(system: RaiSystem, plan, tmpdir: str) -> Prepared:
    records: List[Submission] = []
    drivers = [closed_loop(system, system.new_client(username=owner),
                           start, steps, records)
               for owner, start, steps in plan]
    return Prepared(drivers, records, sum(len(p[2]) for p in plan))


# deadline_backlog -------------------------------------------------------------

BACKLOG_SUBMISSIONS = 1600
BACKLOG_RATE_PER_S = 200.0
BACKLOG_TEAMS = 64
BACKLOG_ZIPF_S = 1.1


def _backlog_plan(rng: np.random.Generator, scale: float):
    count = scaled(BACKLOG_SUBMISSIONS, scale, floor=20)
    # Each team submits at its own steady pace (its exact Zipf share of
    # the window, evenly spaced) from a seeded phase.
    window = count / BACKLOG_RATE_PER_S
    weights = 1.0 / np.arange(1, BACKLOG_TEAMS + 1) ** BACKLOG_ZIPF_S
    shares = np.floor(weights / weights.sum() * count).astype(int)
    shares[:count - shares.sum()] += 1
    arrivals = []
    for team, share in enumerate(shares):
        phase = rng.uniform(0.0, 1.0)
        arrivals += [(float((k + phase) / share * window), team)
                     for k in range(share)]
    arrivals.sort()
    # Source lengths for members, in the order they join.
    return arrivals, spread(rng, count, 100, 2000).astype(int)


def _backlog_prepare(system: RaiSystem, plan, tmpdir: str) -> Prepared:
    arrivals, lines = plan
    records: List[Submission] = []
    sim = system.sim
    idle: Dict[int, list] = {}
    joined: List[str] = []

    def one(client, team: int, record: Submission, ordinal: int):
        if not record.first:
            client.stage_project(
                {"notes.txt": f"{client.username} {ordinal}\n"})
        record.result = yield from client.submit()
        idle[team].append(client)

    def dispatcher():
        # Open loop: each submission leaves at its due time whatever the
        # backlog; an idle member of the team takes it, else a new member
        # joins (named in joining order, so the run is reproducible).
        in_flight = []
        for ordinal, (due, team) in enumerate(arrivals):
            if due > sim.now:
                yield sim.timeout(due - sim.now)
            pool = idle.setdefault(team, [])
            if pool:
                client, first = pool.pop(), False
            else:
                name = f"dl{team:02d}-m{len(joined):04d}"
                client = system.new_client(team=f"dl{team:02d}", username=name)
                client.stage_project(tiny_project(name, lines[len(joined)]))
                joined.append(name)
                first = True
            record = Submission(first, due, JobStatus.SUCCEEDED,
                                lateness=sim.now - due)
            records.append(record)
            in_flight.append(sim.process(one(client, team, record, ordinal)))
        yield sim.all_of(in_flight)

    return Prepared([dispatcher()], records, len(arrivals))


# overhead_floor ---------------------------------------------------------------

FLOOR_CLIENTS = 150
FLOOR_ROUNDS = 8


def _floor_plan(rng: np.random.Generator, scale: float):
    clients = scaled(FLOOR_CLIENTS, scale)
    lines = spread(rng, clients, 100, 2000).astype(int)
    starts = spread(rng, clients, 0.0, 46.0)
    plans = []
    for i in range(clients):
        owner = f"solo{i:03d}"
        steps = [Step(0.0, tiny_project(owner, lines[i]))]
        thinks = 31.0 + spread_exponential(rng, FLOOR_ROUNDS - 1, 15.0)
        for r in range(1, FLOOR_ROUNDS):
            steps.append(Step(float(thinks[r - 1]),
                              {"notes.txt": f"{owner} {r}\n"}))
        plans.append((owner, float(starts[i]), steps))
    return plans


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="course_mix",
        why="the paper's traffic on a fresh fleet: 58 teams edit, break, "
            "fix and finally submit; every layer on its write/miss path "
            "with real queueing, WAL, scrape/SLO loop and ranking on",
        workers=2, slots=1, fresh_fleet=True,
        config=SystemConfig, plan=_course_plan, prepare=_course_prepare),
    Workload(
        name="resubmit_hits",
        why="only a file no build reads changes, so build cache, upload "
            "dedup, warm pool and fetch cache all hit; durability and "
            "scraper off; the NumPy CNN really runs for every 4th student",
        workers=6, slots=2,
        config=SystemConfig, plan=_hits_plan, prepare=_solo_prepare),
    Workload(
        name="deadline_backlog",
        why="open loop at 100/s over 64 Zipf-skewed teams and 4 shards: a "
            "deep backlog where scheduler scan, shard routing/stealing and "
            "broker depth are the marginal cost and latency is queue wait",
        workers=8, slots=2,
        config=lambda: SystemConfig(shards=4, rate_limit_seconds=0.0),
        plan=_backlog_plan, prepare=_backlog_prepare),
    Workload(
        name="overhead_floor",
        why="one-line echo jobs on shallow queues, shards=1: fixed per-job "
            "overhead with nothing to amortise it, event ring and trace "
            "store wrapping several times",
        workers=12, slots=2,
        config=SystemConfig, plan=_floor_plan, prepare=_solo_prepare),
)}
