"""Jenkins-style CI (Table I row 4).

Build jobs run arbitrary user-defined steps in isolated executors and
fleets of agents scale out — but students must have commit access to a
repository wired into the instance, the course must administer Jenkins
itself, and (2016-era) "no CI tool can run GPU or FPGA code" (§III).
Accessibility for anonymous remote students is the missing column.
"""

from __future__ import annotations

from repro.baselines.base import BaselineJob, SubmissionOutcome, SubmissionSystem

#: Build executors the Jenkins master starts with.
EXECUTORS = 8


class JenkinsCI(SubmissionSystem):
    name = "Jenkins"
    remote_accessible_without_hardware = False  # needs repo/instance access

    def __init__(self):
        self._executors = EXECUTORS
        self.builds = 0

    def submit(self, job: BaselineJob) -> SubmissionOutcome:
        self.builds += 1
        return SubmissionOutcome(
            accepted=True,
            ran_requested_commands=True,       # Jenkinsfile steps: anything
            used_requested_image=True,         # docker agents
            escaped_sandbox=False,
            enforced_grading_procedure=True,   # pipeline is versioned/fixed
            had_gpu=False,                     # §III: CI can't run GPU code
            notes="requires commit access to a wired-up repository",
        )

    def add_capacity(self, units: int) -> int:
        self._executors += units
        return units

    def capacity(self) -> int:
        return self._executors
