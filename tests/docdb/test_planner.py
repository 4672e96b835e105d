"""Query planner: indexed access paths (read off ``planner_stats``),
ordering pins."""

import pytest

from repro.docdb import DocumentDB


@pytest.fixture
def jobs():
    db = DocumentDB()
    coll = db.collection("jobs")
    coll.create_index("job_id")
    for i in range(20):
        coll.insert_one({"_id": f"doc-{i}", "job_id": f"job-{i:03d}",
                         "status": "queued", "cost": float(i)})
    return coll


def _delta(coll, query) -> tuple:
    """``(index_hits, scans, docs_examined)`` that ``query()`` adds to
    ``coll``'s planner counts."""
    before = dict(coll.planner_stats)
    query()
    after = coll.planner_stats
    return tuple(after[key] - before[key]
                 for key in ("index_hits", "scans", "docs_examined"))


class TestAccessPath:
    def test_equality_on_indexed_field(self, jobs):
        assert _delta(jobs, lambda: jobs.find({"job_id": "job-007"})) == \
            (1, 0, 1)

    def test_indexed_read_returns_its_match(self, jobs):
        found = []
        assert _delta(jobs, lambda: found.extend(
            jobs.find({"job_id": "job-003"}))) == (1, 0, 1)
        assert [d["_id"] for d in found] == ["doc-3"]

    def test_unindexed_field_scans(self, jobs):
        assert _delta(jobs, lambda: jobs.find({"status": "queued"})) == \
            (0, 1, 20)

    def test_first_indexed_field_plans_a_mixed_filter(self, jobs):
        query = {"status": "queued", "job_id": "job-003"}
        assert _delta(jobs, lambda: jobs.find(query)) == (1, 0, 1)
        assert jobs.find(query).count() == 1

    def test_operator_condition_scans(self, jobs):
        query = {"job_id": {"$in": ["job-001", "job-002"]}}
        assert _delta(jobs, lambda: jobs.find(query)) == (0, 1, 20)
        assert jobs.find(query).count() == 2

    def test_planner_stats_accumulate(self, jobs):
        before = dict(jobs.planner_stats)
        jobs.find({"job_id": "job-001"})
        jobs.find({"status": "queued"})
        assert jobs.planner_stats["index_hits"] == before["index_hits"] + 1
        assert jobs.planner_stats["scans"] == before["scans"] + 1
        assert jobs.planner_stats["range_hits"] == 0


class TestWritePathUsesIndex:
    """Regression: _update/_delete used to scan every document even when
    the filter hit an indexed field."""

    def test_update_one_routes_through_index(self, jobs):
        before = dict(jobs.planner_stats)
        modified = jobs.update_one({"job_id": "job-004"},
                                   {"$set": {"status": "running"}})
        assert modified == 1
        after = dict(jobs.planner_stats)
        assert (after["index_hits"] - before["index_hits"],
                after["scans"] - before["scans"],
                after["docs_examined"] - before["docs_examined"]) == (1, 0, 1)
        assert jobs.find_one({"job_id": "job-004"})["status"] == "running"

    def test_indexed_write_touches_fraction_of_collection(self, jobs):
        jobs.planner_stats["docs_examined"] = 0
        for i in range(20):
            jobs.update_one({"job_id": f"job-{i:03d}"},
                            {"$set": {"cost": 0.0}})
        # 20 indexed updates examine 20 docs total; the old scan path
        # examined 20 * 20 = 400.
        assert jobs.planner_stats["docs_examined"] == 20
        assert jobs.planner_stats["scans"] == 0


class TestCandidateOrdering:
    """Pin insertion-order candidates (the old code sorted ids by str,
    so doc-10 came before doc-2)."""

    def test_index_candidates_preserve_insertion_order(self):
        coll = DocumentDB().collection("c")
        coll.create_index("kind")
        for i in [1, 2, 10, 3]:
            coll.insert_one({"_id": f"doc-{i}", "kind": "x", "n": i})
        got = [d["_id"] for d in coll.find({"kind": "x"})]
        assert got == ["doc-1", "doc-2", "doc-10", "doc-3"]

    def test_scan_candidates_preserve_insertion_order(self):
        coll = DocumentDB().collection("c")
        for i in [5, 50, 6]:
            coll.insert_one({"_id": f"doc-{i}", "n": i})
        got = [d["_id"] for d in coll.find({})]
        assert got == ["doc-5", "doc-50", "doc-6"]

    def test_update_one_hits_first_inserted_match(self):
        coll = DocumentDB().collection("c")
        coll.create_index("kind")
        coll.insert_one({"_id": "doc-2", "kind": "x"})
        coll.insert_one({"_id": "doc-10", "kind": "x"})
        coll.update_one({"kind": "x"}, {"$set": {"hit": True}})
        assert coll.find_one({"_id": "doc-2"}).get("hit") is True
        assert coll.find_one({"_id": "doc-10"}).get("hit") is None


class TestSubmissionsAutoIndex:
    def test_system_creates_job_id_index(self):
        from repro.core.system import RaiSystem
        system = RaiSystem.standard(num_workers=1, seed=1)
        submissions = system.db.collection("submissions")
        assert _delta(submissions, lambda: submissions.find(
            {"job_id": "job-000001"})) == (1, 0, 0)
