"""The scenarios tier-1's goldens and system-level pins run on.

- :func:`control_plane_digest` folds a small full-system storm
  (:func:`control_plane_storm`) into a SHA-256 digest; the default
  config and ``shards=1`` — the same one-partition plane — must
  reproduce :data:`GOLDEN_DIGEST`.
- :func:`grading_digest` folds everything a student sees and grading
  records of a tiny sequential course; it must not change with the build
  cache on or off.
- :func:`resubmission_storm` replays the paper's load shape (§V,
  Figure 4: the same teams pushing near-identical projects dozens of
  times against shared workers) and hands back the system and every
  result, for the dedup, docdb, build-cache, warm-pool and fairness pins.
- :func:`deployment` builds a system whose workers share one
  ``WorkerConfig``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.broker.message import message_pool, reset_message_ids
from repro.core.config import SystemConfig, WorkerConfig
from repro.core.job import JobResult, JobStatus, reset_job_ids
from repro.core.system import RaiSystem
from repro.obs.context import reset_obs_ids
from repro.vfs import VirtualFileSystem, file_digest, unpack_tree


def deployment(num_workers: int = 1, seed: int = 0,
               worker_config: Optional[WorkerConfig] = None,
               config: Optional[SystemConfig] = None) -> RaiSystem:
    """``num_workers`` workers, each built from ``worker_config``."""
    system = RaiSystem(seed=seed, config=config)
    for _ in range(num_workers):
        system.add_worker(worker_config)
    return system


#: Delivery-order digest of the reference storm.
#: ``control_plane_digest()`` must produce this on the default config and
#: on ``SystemConfig(shards=1)``: both build the one-partition control
#: plane.  Captured when the unsharded control plane was a separate code
#: path and held, without re-capture, when that path was replaced by the
#: one-partition plane.  Re-captured six times, each time for a model
#: change made on purpose.  When the build artifact cache
#: landed: cached resubmission builds re-time and re-place downstream
#: work (before it,
#: 71d365bccfb90a486220a01387e56bc3e232418e239018874a34f5d7808d17ed).
#: When the warm pool began resetting containers on return instead of at
#: acquire: a warm job finishes up to one reset earlier (before it,
#: 715d5ada1b1addc86826badfc41a8b86ebaae8e3a134f785ee2cd5083ad51653).
#: When workers began pulling the course image and filling their pools
#: at boot, and a job claimed mid-pull began waiting only for what is
#: left of it: first jobs finish sooner (before it,
#: 2276af4f8bd2f33d5d965140ec41d39b5b03800f42b580f274afcdcc46912933).
#: When the pool began holding two containers per slot, so a busy slot
#: takes the one it returned a job ago instead of waiting out the reset
#: of the one it just returned: queued jobs start sooner (before it,
#: 7fb5b6a803c430a6c32076aa582ef688efa58feb0d80df5cb53e003be9803dff).
#: When a job's build-cache hits began sharing one probe round trip, so
#: a resubmission's second hit pays only its artifact bytes: cached
#: builds finish 0.05 s sooner (before it,
#: 434e099d2298b20043ad97d9abd43cc83eebdfa2374ae568d1ce6de7f51d0ad1).
#: When workers began keeping an index of the cache entries they fetched
#: or captured, so a hit on a known entry skips the probe and a delivery
#: that only misses pays it: resubmissions finish 0.05 s sooner, first
#: builds 0.05 s later (before it,
#: c282724e2946a4312476a866ea89e4e3d0f4761d905551c407bc56dfd964268c).
GOLDEN_DIGEST = \
    "0c9be705653ebc6c523c2359ce3c5dba420c533ef5caffca18f97aabb7ffca20"


def control_plane_storm(n_teams: int = 6, jobs_per_team: int = 3,
                        num_workers: int = 3, seed: int = 11,
                        config=None):
    """Run a small full-system storm from fresh ids: ``n_teams`` teams,
    2 s apart, each submitting ``jobs_per_team`` Listing 1 jobs one rate
    limit (+5 s) apart.  Returns ``(system, results)``."""
    reset_message_ids()
    reset_job_ids()
    reset_obs_ids()
    message_pool._free.clear()
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
    return system, results


def outcome_digest(results) -> str:
    """SHA-256 over job id, final status, worker id, and queue/finish
    timestamps of every result, sorted by job id."""
    digest = hashlib.sha256()
    for r in sorted(results, key=lambda x: x.job_id):
        digest.update(("%s;%s;%s;%r;%r"
                       % (r.job_id, r.status.value, r.worker_id,
                          r.queued_at, r.finished_at)).encode())
    return digest.hexdigest()


def control_plane_digest(n_teams: int = 6, jobs_per_team: int = 3,
                         num_workers: int = 3, seed: int = 11,
                         config=None):
    """Run :func:`control_plane_storm`; digest the per-job outcomes.

    Returns ``(hexdigest, sorted statuses, n_results)``.  Any reordering,
    re-timing, or re-placement of work under a config change shows up in
    the digest.
    """
    _, results = control_plane_storm(n_teams, jobs_per_team, num_workers,
                                     seed, config)
    statuses = sorted(set(r.status.value for r in results))
    return outcome_digest(results), statuses, len(results)


#: Course scaffolding every student's project shares verbatim — the
#: cross-student dedup opportunity (starter code, datasets, build glue).
_SCAFFOLD_BLOB = ("// ECE408 course scaffold\n" * 64).encode()


def _scaffold_files() -> dict:
    files = {
        "CMakeLists.txt": "add_executable(ece408 main.cu)\n" * 40,
        "USAGE": "cmake /src && make && ./ece408 data/model\n",
        "report.pdf": b"%PDF-1.4" + bytes(6144),
    }
    for i in range(4):
        files[f"support/common_{i}.h"] = _SCAFFOLD_BLOB
    return files


def _student_source(student: int) -> str:
    # Unique per student, stable across that student's resubmissions.
    return ("// @rai-sim quality=0.9 impl=im2col\n"
            "#define TILE_WIDTH 16\n"
            + f"// student {student}\n" * 100)


def _tuning_file(student: int, attempt: int) -> str:
    # The file a resubmission edits.  Named to sort last so the edit
    # stays in the archive's tail chunks (fixed-size chunking).
    return (f"// student {student} attempt {attempt}\n"
            f"#define BLOCK_DIM {8 + attempt}\n")


def grading_digest(seed: int = 408, cache_enabled: bool = True,
                   n_students: int = 2, n_resubmissions: int = 2) -> str:
    """Digest every grading-relevant output of a tiny sequential course.

    One worker, one student at a time, so scheduling cannot reorder
    anything; the digest covers each job's status, concatenated
    stdout/stderr (per stream — replay publishes one chunk per stream
    where a live build streams many, but the bytes must concatenate
    identically), and the content of every file in the downloaded build
    archive (path → sha256; archive bytes themselves embed mtimes, so
    they are hashed per file, not as a blob).

    The golden check: this digest must be byte-identical with the build
    cache on and off — replay never changes what students see or what
    grading records.
    """
    config = SystemConfig()
    config.buildcache_enabled = cache_enabled
    system = RaiSystem.standard(num_workers=1, seed=seed, config=config)
    digest = hashlib.sha256()
    gap = system.config.rate_limit_seconds + 1.0

    def course():
        for i in range(n_students):
            client = system.new_client(username=f"golden{i:02d}")
            files = _scaffold_files()
            files["main.cu"] = _student_source(i)
            files["zz_tuning.cfg"] = _tuning_file(i, 0)
            client.stage_project(files)
            for attempt in range(n_resubmissions + 1):
                if attempt:
                    client.stage_project(
                        {"zz_tuning.cfg": _tuning_file(i, attempt)})
                    yield system.sim.timeout(gap)
                result = yield from client.submit()
                digest.update(f"job {i}/{attempt} "
                              f"{result.status.value}\n".encode())
                for stream in ("stdout", "stderr"):
                    text = "".join(chunk for _t, s, chunk in result.log
                                   if s == stream)
                    digest.update(f"{stream} {len(text)}\n".encode())
                    digest.update(text.encode())
                blob = client.download_build(result)
                digest.update(b"build none\n" if blob is None
                              else b"build tree\n")
                if blob is not None:
                    tree = VirtualFileSystem()
                    unpack_tree(blob, tree, "/")
                    for path in tree.iter_files("/"):
                        content = file_digest(tree.read_file(path))
                        digest.update(f"{path}\0{content}\n".encode())

    system.run(course())
    return digest.hexdigest()


#: Build file of the lean course image.  Odd students build on it, so a
#: worker that pulled either image pays only the other's top layer.
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

#: The team every flooding client shares.
FLOOD_TEAM = "team-flood"


@dataclass
class Storm:
    """What :func:`resubmission_storm` leaves behind to assert on."""

    system: RaiSystem
    #: Each student's first submission, then every later one.
    first: List[JobResult] = field(default_factory=list)
    resubmissions: List[JobResult] = field(default_factory=list)
    #: The flooding team's accepted submissions.
    flood: List[JobResult] = field(default_factory=list)
    #: Client-side queue waits by team, flooding team included.
    waits: Dict[str, List[float]] = field(default_factory=dict)

    def outcomes(self) -> list:
        """Everything the simulation decided about every job."""
        return [(r.status, r.worker_id, r.queued_at, r.started_at,
                 r.finished_at)
                for r in self.first + self.resubmissions + self.flood]


def resubmission_storm(n_students: int = 3, n_resubmissions: int = 2,
                       n_workers: int = 2, seed: int = 408,
                       config: Optional[SystemConfig] = None,
                       worker_config: Optional[WorkerConfig] = None,
                       flood_clients: int = 0,
                       flood_submissions: int = 2) -> Storm:
    """N students × M resubmissions against a shared fleet.

    Students share the course scaffold, keep one source file each, and
    resubmit by editing only ``zz_tuning.cfg``, which no build reads —
    so a resubmission's upload dedups and its build inputs are
    unchanged.  ``flood_clients`` more clients share :data:`FLOOD_TEAM`
    and resubmit as fast as the team's rate limit lets them.
    """
    system = deployment(
        num_workers=n_workers, seed=seed, config=config or SystemConfig(),
        worker_config=worker_config or WorkerConfig(max_concurrent_jobs=2))
    storm = Storm(system)
    gap = system.config.rate_limit_seconds + 1.0

    def record(team: str, result: JobResult, into: list) -> None:
        into.append(result)
        if result.queue_wait is not None:
            storm.waits.setdefault(team, []).append(result.queue_wait)

    def student(i: int):
        team = f"team{i:02d}"
        client = system.new_client(team=team, username=f"student{i:03d}")
        files = _scaffold_files()
        files["main.cu"] = _student_source(i)
        files["zz_tuning.cfg"] = _tuning_file(i, 0)
        if i % 2:
            files["rai-build.yml"] = MINIMAL_BUILD_YAML
        client.stage_project(files)
        # Stagger arrivals so the fleet sees a ragged burst, not a wall.
        yield system.sim.timeout(0.5 * i)
        for attempt in range(n_resubmissions + 1):
            if attempt:
                client.stage_project(
                    {"zz_tuning.cfg": _tuning_file(i, attempt)})
                yield system.sim.timeout(gap)
            result = yield from client.submit()
            record(team, result,
                   storm.resubmissions if attempt else storm.first)

    def flooder(j: int):
        number = n_students + j
        client = system.new_client(team=FLOOD_TEAM,
                                   username=f"student{number:03d}")
        files = _scaffold_files()
        files["main.cu"] = _student_source(number)
        files["zz_tuning.cfg"] = _tuning_file(number, 0)
        client.stage_project(files)
        yield system.sim.timeout(0.1 * j)
        accepted = 0
        while accepted < flood_submissions:
            result = yield from client.submit()
            if result.status is JobStatus.REJECTED:
                # The whole team shares one rate-limit window.
                yield system.sim.timeout(0.3)
                continue
            record(FLOOD_TEAM, result, storm.flood)
            accepted += 1
            client.stage_project(
                {"zz_tuning.cfg": _tuning_file(number, accepted)})

    system.run_all([student(i) for i in range(n_students)]
                   + [flooder(j) for j in range(flood_clients)])
    return storm
