"""Integration tests for download → re-run-min → grade report (§VI/§VII)."""

import pytest

from repro.core.job import JobKind
from repro.core.system import RaiSystem
from repro.grading import (
    GradingEvaluator,
    SubmissionDownloader,
    generate_grade_reports,
)


@pytest.fixture(scope="module")
def graded_system():
    """A system with two teams' final submissions in it."""
    system = RaiSystem.standard(num_workers=2, seed=31)
    specs = {"fast-team": 0.92, "slow-team": 0.30}
    for team, quality in specs.items():
        client = system.new_client(team=team)
        client.stage_project({
            "main.cu": f"// @rai-sim quality={quality} impl=analytic "
                       "correctness=0.97\n// TILE_WIDTH tuning\n",
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
            "USAGE": "cmake && make && ./ece408",
            "report.pdf": b"%PDF-1.4" + bytes(3000),
        })
        result = system.run(client.submit(JobKind.SUBMIT))
        assert result.succeeded
    return system


class TestDownloader:
    def test_downloads_every_final(self, graded_system):
        downloader = SubmissionDownloader(graded_system)
        subs = downloader.download_all()
        assert {s.team for s in subs} == {"fast-team", "slow-team"}
        for sub in subs:
            assert sub.has_required_files()
            assert "main.cu" in sub.source_files()
            assert sub.internal_time is not None

    def test_clean_removes_intermediates(self, graded_system):
        downloader = SubmissionDownloader(graded_system)
        dirty = downloader.download_all(clean=False)[0]
        clean = downloader.download_all(clean=True)[0]
        assert dirty.fs.isfile("/Makefile")
        assert not clean.fs.exists("/Makefile")
        assert not any(p.endswith(".nvprof")
                       for p in clean.fs.iter_files("/"))
        # sources survive cleaning
        assert clean.fs.isfile("/submission_code/main.cu")


class TestEvaluator:
    def test_rerun_takes_min(self, graded_system):
        downloader = SubmissionDownloader(graded_system)
        sub = [s for s in downloader.download_all()
               if s.team == "fast-team"][0]
        evaluator = GradingEvaluator()
        result = evaluator.evaluate(sub, repetitions=5)
        assert len(result.runs) == 5
        assert result.successful_runs == 5
        times = [r.elapsed for r in result.runs]
        assert result.best_time == min(times)
        assert max(times) > min(times)   # noise exists → min matters

    def test_faster_team_evaluates_faster(self, graded_system):
        downloader = SubmissionDownloader(graded_system)
        evaluator = GradingEvaluator()
        by_team = {s.team: evaluator.evaluate(s, repetitions=2)
                   for s in downloader.download_all()}
        assert by_team["fast-team"].best_time < \
            by_team["slow-team"].best_time

    def test_accuracy_recovered(self, graded_system):
        downloader = SubmissionDownloader(graded_system)
        sub = downloader.download_all()[0]
        result = GradingEvaluator().evaluate(sub, repetitions=1)
        assert result.accuracy == pytest.approx(0.97)


class TestGradeReports:
    def test_reports_combine_auto_and_manual(self, graded_system):
        downloader = SubmissionDownloader(graded_system)
        subs = downloader.download_all()
        evaluator = GradingEvaluator()
        evaluations = {s.team: evaluator.evaluate(s, repetitions=3)
                       for s in subs}
        ranks = {row["team"]: row["rank"]
                 for row in graded_system.ranking.leaderboard()}
        reports = generate_grade_reports(subs, evaluations, ranks)
        assert len(reports) == 2
        by_team = {r.breakdown.team: r for r in reports}
        fast = by_team["fast-team"].breakdown
        slow = by_team["slow-team"].breakdown
        assert fast.performance > slow.performance
        assert fast.total > slow.total
        assert fast.rank == 1
        rendered = by_team["fast-team"].render()
        assert "TOTAL:" in rendered
        assert "performance (30%)" in rendered

    def test_missing_evaluation_gives_zero_perf(self, graded_system):
        downloader = SubmissionDownloader(graded_system)
        subs = downloader.download_all()
        reports = generate_grade_reports(subs, evaluations={}, ranks={})
        assert all(r.breakdown.performance == 0.0 for r in reports)
