"""Grade-report generation (§VII).

"A grade report for each team was then generated by combining the
automated and manual feedback.  The grade report was then posted onto the
University's grade management system."  The automated inputs (best time,
ranking, accuracy) come from :mod:`repro.grading.evaluator`; the manual
inputs (code-quality and report scores) are supplied by the caller or by
simple default heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.grading.download import DownloadedSubmission
from repro.grading.evaluator import EvaluationResult
from repro.grading.rubric import ACCURACY_TARGET, GradeBreakdown, Rubric


@dataclass
class GradeReport:
    """What gets posted to the grade-management system, per team."""

    breakdown: GradeBreakdown
    evaluation_runs: int
    comments: List[str]

    def render(self) -> str:
        b = self.breakdown
        lines = [
            f"=== Grade report: {b.team} ===",
            f"final rank:        "
            f"{('#' + str(b.rank)) if b.rank else 'unranked'}",
            f"best time:         "
            f"{b.best_time:.3f} s" if b.best_time is not None
            else "best time:         (no successful run)",
            f"performance (30%): {b.performance * 100:5.1f}",
            f"correctness (20%): {b.correctness * 100:5.1f}",
            f"code quality(10%): {b.code_quality * 100:5.1f}",
            f"report      (40%): {b.report * 100:5.1f}",
            f"TOTAL:             {b.total * 100:5.1f} / 100",
        ]
        for comment in self.comments:
            lines.append(f"  - {comment}")
        return "\n".join(lines)


def default_code_quality(submission: DownloadedSubmission) -> float:
    """A stand-in for the manual code review: structure heuristics."""
    sources = submission.source_files()
    if not sources:
        return 0.0
    score = 0.6
    text = b"\n".join(v for k, v in sources.items()
                      if k.endswith((".cu", ".cpp", ".c"))).decode(
        "utf-8", "replace")
    if "TILE" in text or "tile" in text:
        score += 0.2   # evidence of tiling work
    if any(k == "CMakeLists.txt" for k in sources):
        score += 0.1
    comment_lines = sum(1 for line in text.splitlines()
                        if line.strip().startswith("//"))
    if comment_lines >= 2:
        score += 0.1
    return min(1.0, score)


def default_report_score(submission: DownloadedSubmission) -> float:
    """A stand-in for manual report grading: presence and substance."""
    if not submission.fs.isfile("/submission_code/report.pdf"):
        return 0.0
    size = submission.fs.stat("/submission_code/report.pdf")["size"]
    return min(1.0, 0.5 + size / 4096.0)


def generate_grade_reports(
    submissions: List[DownloadedSubmission],
    evaluations: Dict[str, EvaluationResult],
    ranks: Dict[str, int],
) -> List[GradeReport]:
    """Combine automated (①②) and manual (③) feedback per team."""
    rubric = Rubric()
    reports = []
    for submission in submissions:
        evaluation = evaluations.get(submission.team)
        best_time = evaluation.best_time if evaluation else None
        accuracy = evaluation.accuracy if evaluation else None
        breakdown = rubric.grade(
            team=submission.team,
            best_time=best_time,
            accuracy=accuracy,
            code_quality=default_code_quality(submission),
            report=default_report_score(submission),
            rank=ranks.get(submission.team),
        )
        comments = []
        if evaluation and evaluation.successful_runs < len(evaluation.runs):
            comments.append(
                f"{len(evaluation.runs) - evaluation.successful_runs} of "
                f"{len(evaluation.runs)} grading re-runs failed")
        if accuracy is not None and accuracy < ACCURACY_TARGET:
            comments.append(
                f"accuracy {accuracy:.2f} below target "
                f"{ACCURACY_TARGET:.2f}")
        if not submission.has_required_files():
            comments.append("missing USAGE and/or report.pdf")
        reports.append(GradeReport(
            breakdown=breakdown,
            evaluation_runs=len(evaluation.runs) if evaluation else 0,
            comments=comments,
        ))
    return reports
