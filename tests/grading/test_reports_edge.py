"""Edge cases for grade reports and rubric defaults."""

import pytest

from repro.grading.reports import (
    GradeReport,
    default_code_quality,
    default_report_score,
)
from repro.grading.rubric import GradeBreakdown
from repro.vfs import VirtualFileSystem


def make_submission(files: dict):
    from repro.grading.download import DownloadedSubmission

    fs = VirtualFileSystem()
    fs.import_mapping(files)
    return DownloadedSubmission(
        team="t", job_id="j", username="u", internal_time=1.0,
        instructor_time=1.1, correctness=1.0, fs=fs, archive_bytes=100)


class TestHeuristics:
    def test_code_quality_rewards_structure(self):
        rich = make_submission({
            "submission_code/main.cu":
                "// tuned\n// TILE_WIDTH 32\nint main(){}\n",
            "submission_code/CMakeLists.txt": "project(x)\n",
        })
        poor = make_submission({
            "submission_code/main.cu": "int main(){}",
        })
        assert default_code_quality(rich) > default_code_quality(poor)

    def test_code_quality_empty_submission_zero(self):
        empty = make_submission({"README": "nothing here"})
        assert default_code_quality(empty) == 0.0

    def test_report_score_requires_pdf(self):
        without = make_submission({"submission_code/main.cu": "x"})
        assert default_report_score(without) == 0.0
        with_report = make_submission({
            "submission_code/report.pdf": b"%PDF" + bytes(4096)})
        assert default_report_score(with_report) == 1.0

    def test_small_report_partial_credit(self):
        tiny = make_submission({
            "submission_code/report.pdf": b"%PDF"})
        score = default_report_score(tiny)
        assert 0.4 < score < 0.7


class TestRenderEdges:
    def test_unranked_team_renders(self):
        breakdown = GradeBreakdown(team="t", performance=0.0,
                                   correctness=0.0, code_quality=0.5,
                                   report=0.5, total=0.25, rank=None,
                                   best_time=None)
        report = GradeReport(breakdown=breakdown, evaluation_runs=0,
                             comments=["no successful grading run"])
        text = report.render()
        assert "unranked" in text
        assert "no successful run" in text
        assert "no successful grading run" in text
