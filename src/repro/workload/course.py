"""The full-course driver: a five-week project replayed end to end.

``CourseSimulation`` assembles a complete RAI deployment, issues
credentials through the real roster/key-mailer flow, provisions workers on
the course's manual schedule (G2 → 10×P2 multi-job → 20-30×P2 single-job),
and runs one behaviour process per team.  Every submission goes through
the genuine client→broker→worker→container→storage→database path; nothing
is shortcut.

This is the workload generator behind the Figure 2, Figure 4, and §VII
resource-usage reproductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.auth.email import KeyMailer
from repro.auth.profile import RaiProfile
from repro.cluster.elasticity import ManualSchedule, SchedulePhase
from repro.cluster.provisioner import Provisioner
from repro.core.client import RaiClient
from repro.core.job import JobKind, JobStatus
from repro.core.system import RaiSystem
from repro.workload.behavior import DAY, HOUR, sample_think_time
from repro.workload.students import Team, make_class
from repro.workload.trajectory import TeamTrajectory, team_project_files


@dataclass
class CourseConfig:
    """Knobs for a course replay."""

    n_students: int = 176
    n_teams: int = 58
    duration_days: float = 35.0
    seed: int = 408
    #: Per-team base submission rate (submissions/hour before modulation).
    base_rate_per_hour: float = 0.62
    #: Mean declared project size (bytes) — real uploads carried datasets
    #: and checkpoints; 40k submissions × ~2.5 MB gave the paper's 100 GB.
    mean_project_bytes: float = 2.5e6
    #: When teams begin their final submissions (days before deadline).
    final_window_days: float = 2.0
    #: How many times a typical team re-submits its final.
    final_resubmits: int = 2
    #: Use the course's manual provisioning schedule (else caller wires
    #: workers/autoscaling themselves).
    use_manual_schedule: bool = True
    final_week_instances: int = 25

    @property
    def duration_seconds(self) -> float:
        return self.duration_days * DAY

    @property
    def deadline(self) -> float:
        return self.duration_seconds


@dataclass
class CourseResult:
    """Everything the benchmarks read back out of a replay."""

    config: CourseConfig
    system: RaiSystem
    provisioner: Optional[Provisioner]
    teams: List[Team]
    submission_times: List[float] = field(default_factory=list)
    final_results: Dict[str, object] = field(default_factory=dict)
    team_results: Dict[str, list] = field(default_factory=dict)

    # -- Figure 4 ------------------------------------------------------------

    def submissions_in_window(self, start_day: float,
                              end_day: float) -> List[float]:
        lo, hi = start_day * DAY, end_day * DAY
        return [t for t in self.submission_times if lo <= t < hi]

    def last_two_weeks(self) -> List[float]:
        return self.submissions_in_window(self.config.duration_days - 14,
                                          self.config.duration_days)

    # -- Figure 2 ------------------------------------------------------------

    def top_runtimes(self, n: int = 30) -> List[float]:
        return self.system.ranking.top_runtimes(n)

    # -- §VII aggregates ------------------------------------------------------

    def totals(self) -> dict:
        storage = self.system.storage
        db = self.system.db
        return {
            "students": self.config.n_students,
            "teams": len(self.teams),
            "submissions": len(self.submission_times),
            "uploaded_bytes": int(
                self.system.monitor.counters.get("bytes_uploaded")),
            "file_server_bytes": storage.total_bytes,
            "file_server_objects": storage.total_objects,
            "log_metadata_bytes": db.estimated_size_bytes(),
            "jobs_recorded": len(db.collection("submissions")),
            "rankings": len(self.system.ranking),
            "cost_usd": (self.provisioner.total_cost()
                         if self.provisioner else 0.0),
        }


class CourseSimulation:
    """Drives one replay of the Applied Parallel Programming project."""

    def __init__(self, config: Optional[CourseConfig] = None):
        self.config = config or CourseConfig()
        self.system = RaiSystem(seed=self.config.seed)
        self.rng = self.system.rng
        self.students, self.teams = make_class(
            self.config.n_students, self.config.n_teams,
            rng=self.rng.stream("class"))
        self.trajectories = {
            team.name: TeamTrajectory.for_team(
                team, self.rng.stream(f"traj:{team.name}"))
            for team in self.teams
        }
        self.provisioner: Optional[Provisioner] = None
        self.result = CourseResult(
            config=self.config, system=self.system,
            provisioner=None, teams=self.teams)

        self._issue_credentials()
        self._clients = self._make_clients()

    # -- setup ------------------------------------------------------------

    def _issue_credentials(self) -> None:
        """The §VI flow: roster → keys → email; teams recorded."""
        roster = [s.roster_entry() for s in self.students]
        team_of = {}
        for team in self.teams:
            for member in team.members:
                team_of[member.user_id] = team.name
        mailer = KeyMailer(self.system.keystore)
        mailer.send_keys(roster, teams=team_of)
        self.outbox = mailer.outbox

    def _make_clients(self) -> Dict[str, RaiClient]:
        """One client per team, logged in as the team's first member."""
        clients = {}
        for team in self.teams:
            lead = team.members[0]
            credential = self.system.keystore._by_user[lead.user_id]
            profile = RaiProfile(username=credential.username,
                                 access_key=credential.access_key,
                                 secret_key=credential.secret_key)
            clients[team.name] = RaiClient(self.system, profile,
                                           team=team.name)
        return clients

    # -- team behaviour ------------------------------------------------------

    def _team_process(self, team: Team):
        config = self.config
        sim = self.system.sim
        rng = self.rng.stream(f"behavior:{team.name}")
        client = self._clients[team.name]
        trajectory = self.trajectories[team.name]
        results = self.result.team_results.setdefault(team.name, [])

        # Staggered start: teams pick the project up over the first days.
        yield sim.timeout(float(rng.uniform(0, 2.5 * DAY)))

        finals_done = 0
        final_window_start = config.deadline - \
            config.final_window_days * DAY
        activity = 0.6 + 0.8 * team.skill  # stronger teams iterate more

        while sim.now < config.deadline:
            think = sample_think_time(
                rng, sim.now, config.deadline,
                base_rate_per_hour=config.base_rate_per_hour,
                team_activity=activity)
            yield sim.timeout(think)
            if sim.now >= config.deadline:
                break

            t_fraction = sim.now / config.duration_seconds
            in_final_window = sim.now >= final_window_start
            wants_final = in_final_window and \
                finals_done <= config.final_resubmits and \
                rng.random() < 0.35
            kind = JobKind.SUBMIT if wants_final else JobKind.RUN

            files = team_project_files(
                trajectory, t_fraction, rng, final=kind is JobKind.SUBMIT)
            client.stage_project(files, clear=True)
            # Projects grow over the course (checkpoints, captured traces).
            client.project_padding_bytes = int(
                config.mean_project_bytes * (0.4 + 1.2 * t_fraction)
                * float(rng.lognormal(0.0, 0.4)))
            result = yield from client.submit(kind)
            results.append(result)
            if kind is JobKind.SUBMIT:
                if result.status is JobStatus.SUCCEEDED:
                    finals_done += 1
                    self.result.final_results[team.name] = result

        # Safety net: every team files a final before grading closes
        # (submissions stay open briefly after the soft deadline).
        while finals_done == 0:
            files = team_project_files(trajectory, 1.0, rng, final=True)
            client.stage_project(files, clear=True)
            result = yield from client.submit(JobKind.SUBMIT)
            results.append(result)
            if result.status is JobStatus.SUCCEEDED:
                finals_done += 1
                self.result.final_results[team.name] = result
            else:
                yield sim.timeout(40.0 + float(rng.uniform(0, 60)))

    # -- run ------------------------------------------------------------

    def run(self) -> CourseResult:
        sim = self.system.sim
        config = self.config

        if config.use_manual_schedule:
            self.provisioner = Provisioner(self.system)
            self.result.provisioner = self.provisioner
            schedule = ManualSchedule(
                self.provisioner,
                ManualSchedule.course_default(
                    final_week_count=config.final_week_instances))
            sim.process(schedule.run())

        team_procs = [sim.process(self._team_process(team))
                      for team in self.teams]

        horizon = (config.duration_days + 1.0) * DAY
        done = sim.all_of(team_procs)

        # Run until every team has finished (or the horizon, whichever is
        # later protection against stragglers).
        sim.run(until=horizon)
        if not done.triggered:
            sim.run(until=done)

        # Every accepted submission's queue instant, in time order.
        self.result.submission_times = sorted(
            r.queued_at for results in self.result.team_results.values()
            for r in results if r.queued_at is not None)
        return self.result
