"""Student-provided machines (Table I row 1).

Each student runs on their own hardware: total configurability and natural
isolation (machines are physically separate), trivially "scalable"
(every enrolee brings a machine) — but 70% of the fall-2016 class had no
CUDA-capable GPU (§II), and every student's environment differs, so graded
runs are not uniform.
"""

from __future__ import annotations

from repro.baselines.base import BaselineJob, SubmissionOutcome, SubmissionSystem

#: §II: "70% of the 176 students ... did not have access to a
#: CUDA-programmable GPU."
GPU_OWNERSHIP_RATE = 0.30


class StudentProvidedSystem(SubmissionSystem):
    name = "Student-Provided"
    remote_accessible_without_hardware = False

    def __init__(self):
        self._machines = 0

    def submit(self, job: BaselineJob) -> SubmissionOutcome:
        self._machines += 1
        # Deterministic "does this student own a GPU" from the owner name.
        owns_gpu = (hash_fraction(job.owner) < GPU_OWNERSHIP_RATE)
        if job.needs_gpu and not owns_gpu:
            return SubmissionOutcome(
                accepted=False, had_gpu=False,
                notes="student has no CUDA-capable GPU")
        return SubmissionOutcome(
            accepted=True,
            ran_requested_commands=True,      # it's their machine
            used_requested_image=True,
            escaped_sandbox=False,            # nothing shared to escape to
            enforced_grading_procedure=False,  # every machine differs
            had_gpu=owns_gpu,
        )

    def add_capacity(self, units: int) -> int:
        return units  # each new student brings hardware

    def capacity(self) -> int:
        return self._machines


def hash_fraction(name: str) -> float:
    import hashlib

    digest = hashlib.sha256(name.encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2 ** 32
