"""WebGPU (Table I row 3): the course's weekly-lab platform.

"These online development environments hide the system configuration
options and disallow more advanced profiling and debugging tools to keep
the focus on the educational objectives of each lab" (§III) — secure,
scalable, accessible, uniform, but not configurable.
"""

from __future__ import annotations

from repro.baselines.base import BaselineJob, SubmissionOutcome, SubmissionSystem

#: Backend GPU slots behind the web front end.
BACKEND_CAPACITY = 16

#: What the lab environment lets students run: their kernel is compiled and
#: invoked by a fixed harness; no shell, no profilers.
_ALLOWED_VERBS = ("compile", "run-dataset")

#: Tools the web UI hides (§III).
_BLOCKED_TOOLS = ("nvprof", "cuda-gdb", "cmake", "make", "nvvp", "gdb")


class WebGPUSystem(SubmissionSystem):
    name = "WebGPU"
    remote_accessible_without_hardware = True

    def __init__(self):
        self._capacity = BACKEND_CAPACITY

    def submit(self, job: BaselineJob) -> SubmissionOutcome:
        # The student's commands are ignored; the harness runs a fixed
        # compile-and-test procedure.
        requested_blocked = any(
            any(tool in command for tool in _BLOCKED_TOOLS)
            for command in job.commands)
        custom_image = job.image is not None and job.image != "webgpu/lab"
        return SubmissionOutcome(
            accepted=True,
            ran_requested_commands=not (requested_blocked or job.commands
                                        and not _is_fixed_harness(job)),
            used_requested_image=not custom_image,
            escaped_sandbox=False,
            enforced_grading_procedure=True,   # same harness grades everyone
            had_gpu=True,
        )

    def add_capacity(self, units: int) -> int:
        self._capacity += units   # cloud-backed, like RAI
        return units

    def capacity(self) -> int:
        return self._capacity


def _is_fixed_harness(job: BaselineJob) -> bool:
    return all(any(command.startswith(verb) for verb in _ALLOWED_VERBS)
               for command in job.commands)
