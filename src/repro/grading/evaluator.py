"""Re-running submissions for grading (§VI/§VII).

"The tool can also be instructed to rerun the students' submissions
multiple times and display the minimum time.  This was done to get a more
accurate measurement of the student execution times during project
evaluation."  Each re-run executes the enforced Listing 2 procedure in a
fresh container on an instructor-controlled device — the same sandbox the
original submission used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.buildspec.defaults import final_submission_spec
from repro.container.runtime import ContainerRuntime
from repro.container.volumes import VolumeMount, cuda_volume
from repro.core.job import _CORRECTNESS_RE, _ELAPSED_RE
from repro.gpu.device import get_device
from repro.grading.download import DownloadedSubmission
from repro.vfs import VirtualFileSystem

#: The instructor-controlled device and image grading re-runs use.
GPU_MODEL = "K80"
IMAGE = "webgpu/rai:root"
#: Relative run-to-run timing noise of a re-run, and its seed.
MEASUREMENT_NOISE = 0.03
NOISE_SEED = 42


@dataclass
class EvaluationRun:
    """One graded re-execution."""

    elapsed: Optional[float]
    correctness: Optional[float]
    exit_code: int
    stdout: str = ""


@dataclass
class EvaluationResult:
    team: str
    runs: List[EvaluationRun] = field(default_factory=list)

    @property
    def best_time(self) -> Optional[float]:
        times = [r.elapsed for r in self.runs
                 if r.elapsed is not None and r.exit_code == 0]
        return min(times) if times else None

    @property
    def accuracy(self) -> Optional[float]:
        accs = [r.correctness for r in self.runs
                if r.correctness is not None and r.exit_code == 0]
        return max(accs) if accs else None

    @property
    def successful_runs(self) -> int:
        return sum(1 for r in self.runs if r.exit_code == 0)


class GradingEvaluator:
    """Re-runs a downloaded submission k times, takes the minimum."""

    def __init__(self):
        self.runtime = ContainerRuntime()
        self.gpu = get_device(GPU_MODEL)
        self._rng = np.random.default_rng(NOISE_SEED)

    def evaluate(self, submission: DownloadedSubmission,
                 repetitions: int = 3) -> EvaluationResult:
        result = EvaluationResult(team=submission.team)
        sources = submission.source_files()
        project = VirtualFileSystem()
        project.import_mapping(sources)
        spec = final_submission_spec()
        for _ in range(max(1, repetitions)):
            result.runs.append(self._run_once(project, spec))
        return result

    def _run_once(self, project: VirtualFileSystem, spec) -> EvaluationRun:
        container = self.runtime.create_container(
            IMAGE,
            mounts=[VolumeMount("/src", read_only=True, source_fs=project),
                    cuda_volume()],
            gpu_device=self.gpu,
        )
        container.start()
        stdout_parts: List[str] = []
        exit_code = 0
        try:
            for command in spec.build_commands:
                exec_result = container.exec_line(command)
                stdout_parts.append(exec_result.stdout)
                if exec_result.exit_code != 0:
                    exit_code = exec_result.exit_code
                    break
        finally:
            self.runtime.destroy_container(container)
        stdout = "".join(stdout_parts)
        elapsed_matches = _ELAPSED_RE.findall(stdout)
        correctness_matches = _CORRECTNESS_RE.findall(stdout)
        elapsed = float(elapsed_matches[-1]) if elapsed_matches else None
        if elapsed is not None:
            # Run-to-run measurement noise — the reason k-run-take-min
            # exists at all.
            elapsed *= 1.0 + MEASUREMENT_NOISE * \
                float(abs(self._rng.normal()))
        return EvaluationRun(
            elapsed=elapsed,
            correctness=(float(correctness_matches[-1])
                         if correctness_matches else None),
            exit_code=exit_code,
            stdout=stdout[-1000:],
        )
