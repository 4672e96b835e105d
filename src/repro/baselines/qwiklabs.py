"""QwikLabs-style hosted lab sessions (Table I row 5).

Students click into a pre-provisioned, time-boxed cloud environment:
isolated, scalable, and accessible from anywhere — but the catalogue of
lab templates is fixed (no course-specific toolchains) and there is no
submission/grading pipeline, so testing uniformity is absent.
"""

from __future__ import annotations

from repro.baselines.base import BaselineJob, SubmissionOutcome, SubmissionSystem

#: Lab sessions the provider runs at once.
CONCURRENT_SESSIONS = 1000

#: The canned environments students may launch.
_CATALOG = ("aws-console-101", "ec2-basics", "s3-basics")


class QwikLabsSystem(SubmissionSystem):
    name = "QwikLabs"
    remote_accessible_without_hardware = True

    def __init__(self):
        self._capacity = CONCURRENT_SESSIONS

    def submit(self, job: BaselineJob) -> SubmissionOutcome:
        in_catalog = job.image in _CATALOG
        return SubmissionOutcome(
            accepted=True,
            # Sessions are interactive consoles on canned templates: the
            # student cannot install the course toolchain.
            ran_requested_commands=in_catalog,
            used_requested_image=in_catalog,
            escaped_sandbox=False,
            enforced_grading_procedure=False,  # no grading pipeline at all
            had_gpu=True,
        )

    def add_capacity(self, units: int) -> int:
        self._capacity += units
        return units

    def capacity(self) -> int:
        return self._capacity
