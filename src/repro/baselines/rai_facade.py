"""RAI itself behind the comparison interface.

The facade drives a real :class:`~repro.core.system.RaiSystem` — the
probes exercise the same code paths students do, so Table I's RAI row is
*measured*, not asserted.
"""

from __future__ import annotations

from repro.baselines.base import BaselineJob, SubmissionOutcome, SubmissionSystem
from repro.buildspec.parser import render_build_spec
from repro.buildspec.spec import RaiBuildSpec
from repro.core.job import JobKind, JobStatus
from repro.core.system import RaiSystem

_DEFAULT_FILES = {
    "main.cu": "// @rai-sim quality=0.5 impl=analytic\nint main(){}\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
    "USAGE": "see report",
    "report.pdf": b"%PDF-1.4 probe",
}


class RaiFacade(SubmissionSystem):
    name = "RAI"
    remote_accessible_without_hardware = True

    def __init__(self):
        self.system = RaiSystem.standard(num_workers=2, seed=1234)
        self._client_counter = 0

    def _client(self, owner: str):
        self._client_counter += 1
        return self.system.new_client(
            team=f"probe-{owner}-{self._client_counter}",
            username=f"{owner}{self._client_counter}")

    def submit(self, job: BaselineJob) -> SubmissionOutcome:
        client = self._client(job.owner)
        files = dict(_DEFAULT_FILES)
        if job.mischief == "read_other_user":
            # Try to exfiltrate another job's files from the worker host.
            files["main.cu"] = ("// @rai-sim quality=0.1 impl=analytic\n"
                                "int main(){}\n")
            commands = ["cat /home/other_student/solution.cu"]
        elif job.mischief == "write_host":
            commands = ["rm -rf /src", "echo pwned > /usr/local/owned"]
        elif job.mischief == "network":
            commands = ["curl http://collusion.example.com/answers"]
        else:
            commands = job.commands or None

        if commands is not None:
            spec = RaiBuildSpec(version="0.1",
                                image=job.image or "webgpu/rai:root",
                                build_commands=list(commands))
            client.stage_project(files)
            client.set_build_file(render_build_spec(spec))
        else:
            client.stage_project(files)

        result = self.system.run(client.submit(JobKind.RUN))

        ran = result.status is JobStatus.SUCCEEDED
        stderr = result.stderr_text()
        escaped = False
        if job.mischief == "read_other_user":
            escaped = "No such file" not in stderr and ran
        elif job.mischief == "write_host":
            escaped = "Read-only" not in stderr and ran
        elif job.mischief == "network":
            escaped = "network" not in stderr.lower() and ran

        return SubmissionOutcome(
            accepted=result.status is not JobStatus.REJECTED,
            ran_requested_commands=ran,
            used_requested_image=result.status is not JobStatus.REJECTED,
            escaped_sandbox=escaped,
            enforced_grading_procedure=True,   # see grading_run
            had_gpu=True,
            queue_wait=result.queue_wait or 0.0,
        )

    def grading_run(self, job: BaselineJob) -> SubmissionOutcome:
        """Final submissions ignore the student's build file (Listing 2)."""
        client = self._client(job.owner)
        client.stage_project(dict(_DEFAULT_FILES))
        if job.commands:
            spec = RaiBuildSpec(version="0.1", image="webgpu/rai:root",
                                build_commands=list(job.commands))
            client.set_build_file(render_build_spec(spec))
        result = self.system.run(client.submit(JobKind.SUBMIT))
        # Uniform iff the run used the enforced procedure, not the
        # student's commands: the enforced spec copies /src into
        # /build/submission_code, so its presence is the witness.
        blob = client.download_build(result)
        enforced = False
        if blob is not None:
            from repro.vfs import archive_member_names

            names = archive_member_names(blob)
            enforced = any(n.startswith("submission_code") for n in names)
        return SubmissionOutcome(
            accepted=result.status is not JobStatus.REJECTED,
            ran_requested_commands=False,
            used_requested_image=True,
            escaped_sandbox=False,
            enforced_grading_procedure=enforced,
            had_gpu=True,
        )

    def add_capacity(self, units: int) -> int:
        for _ in range(units):
            self.system.add_worker()
        return units

    def capacity(self) -> int:
        return len(self.system.running_workers)
