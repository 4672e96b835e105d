"""Tests for coursework auditing analytics."""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RaiSystem
from repro.docdb import DocumentDB
from repro.docdb.sharded import ShardedCollection
from repro.grading.audit import CourseworkAuditor


ROWS = [
    # team-a: improves 10 → 2 → 0.5 over three successful runs
    {"team": "team-a", "status": "succeeded", "exit_code": 0,
     "internal_time": 10.0, "submitted_at": 100, "finished_at": 110,
     "kind": "run"},
    {"team": "team-a", "status": "succeeded", "exit_code": 0,
     "internal_time": 2.0, "submitted_at": 200, "finished_at": 210,
     "kind": "run"},
    {"team": "team-a", "status": "failed", "exit_code": 139,
     "internal_time": None, "submitted_at": 250, "finished_at": 260,
     "kind": "run"},
    {"team": "team-a", "status": "succeeded", "exit_code": 0,
     "internal_time": 0.5, "submitted_at": 300, "finished_at": 310,
     "kind": "submit"},
    # team-b: one OOM, one success at 4s
    {"team": "team-b", "status": "failed", "exit_code": 137,
     "internal_time": None, "submitted_at": 120, "finished_at": 130,
     "kind": "run"},
    {"team": "team-b", "status": "succeeded", "exit_code": 0,
     "internal_time": 4.0, "submitted_at": 400, "finished_at": 410,
     "kind": "run"},
    # a rejected job with no team
    {"team": None, "status": "rejected", "exit_code": None,
     "internal_time": None, "submitted_at": 1, "finished_at": 2,
     "kind": "run"},
]


@pytest.fixture
def db():
    db = DocumentDB()
    db.collection("submissions").insert_many(ROWS)
    return db


@pytest.fixture
def auditor(db):
    return CourseworkAuditor(db)


class TestTeamActivity:
    def test_counts_and_rates(self, auditor):
        activity = {row["_id"]: row for row in auditor.team_activity()}
        assert activity["team-a"]["submissions"] == 4
        assert activity["team-a"]["succeeded"] == 3
        assert activity["team-a"]["success_rate"] == pytest.approx(0.75)
        assert activity["team-a"]["best_time"] == 0.5
        assert activity["team-b"]["success_rate"] == pytest.approx(0.5)

    def test_sorted_by_volume(self, auditor):
        rows = auditor.team_activity()
        assert rows[0]["_id"] == "team-a"

    def test_teamless_jobs_excluded(self, auditor):
        assert all(row["_id"] is not None
                   for row in auditor.team_activity())


class TestFailureBreakdown:
    def test_status_counts(self, auditor):
        breakdown = auditor.failure_breakdown()
        assert breakdown == {"succeeded": 4, "failed": 2, "rejected": 1}

    def test_exit_codes(self, auditor):
        codes = auditor.exit_code_breakdown()
        assert codes == {139: 1, 137: 1}


class TestImprovement:
    def test_curve_in_submission_order(self, auditor):
        curve = auditor.improvement_curve("team-a")
        assert [row["internal_time"] for row in curve] == [10.0, 2.0, 0.5]

    def test_most_improved(self, auditor):
        ranked = auditor.most_improved()
        assert ranked[0]["team"] == "team-a"
        assert ranked[0]["speedup"] == pytest.approx(20.0)
        # team-b has only one successful run → excluded
        assert all(row["team"] != "team-b" for row in ranked)


class TestRendering:
    def test_summary_table(self, auditor):
        text = auditor.render_summary()
        assert "team-a" in text
        assert "job outcomes:" in text
        assert "succeeded=4" in text


class TestOnRealCourseData:
    def test_audit_a_small_replay(self):
        from repro.workload.course import CourseConfig, CourseSimulation

        config = CourseConfig(n_students=6, n_teams=2, duration_days=1.5,
                              seed=14, final_week_instances=2)
        simulation = CourseSimulation(config)
        simulation.run()
        auditor = CourseworkAuditor(simulation.system.db)
        activity = auditor.team_activity()
        assert len(activity) == 2
        assert all(row["submissions"] > 0 for row in activity)
        assert auditor.failure_breakdown().get("succeeded", 0) > 0
        assert "Most active teams" in auditor.render_summary()


class TestOnShardedDeployment:
    def test_sharded_submissions_audit_like_one_collection(self, auditor):
        """With ``shards > 1`` the deployment's ``submissions`` is a
        :class:`ShardedCollection`; every report reads the same."""
        system = RaiSystem(config=SystemConfig(shards=4))
        submissions = system.db.collection("submissions")
        assert isinstance(submissions, ShardedCollection)
        for row in ROWS:
            submissions.insert_one(row)
        sharded = CourseworkAuditor(system.db)
        assert sharded.team_activity() == auditor.team_activity()
        assert sharded.failure_breakdown() == auditor.failure_breakdown()
        assert sharded.exit_code_breakdown() == \
            auditor.exit_code_breakdown()
        assert sharded.improvement_curve("team-a") == \
            auditor.improvement_curve("team-a")
        assert sharded.most_improved() == auditor.most_improved()
        assert sharded.render_summary() == auditor.render_summary()
