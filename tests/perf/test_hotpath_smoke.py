"""Tier-1 smoke of the submission hot path: dedup wins and indexed probes.

Runs the small resubmission storm on every test pass, so a regression in
the dedup upload path, the query planner or the worker's fetch cache
fails on a count here, not only in the benchmark's per-layer table.
"""

import pytest

from tests.golden import resubmission_storm

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def storm():
    return resubmission_storm()


def test_all_submissions_complete(storm):
    results = storm.first + storm.resubmissions
    assert len(results) == 3 * (2 + 1)
    assert all(r.succeeded for r in results)


def test_dedup_ratio_beats_full_uploads(storm):
    """Resubmissions must actually dedup: logical bytes exceed wire bytes."""
    logical = sum(r.upload_bytes_full
                  for r in storm.first + storm.resubmissions)
    assert logical > storm.system.monitor.counters.get("bytes_uploaded")
    wire = sum(r.upload_bytes for r in storm.resubmissions)
    full = sum(r.upload_bytes_full for r in storm.resubmissions)
    assert wire < full
    assert storm.system.storage.chunk_store.dedup_ratio() > 1.0


def test_indexed_submission_lookup_beats_scan(storm):
    """The per-job probe runs on the submissions.job_id index and
    examines one document, not the collection."""
    submissions = storm.system.db.collection("submissions")
    assert storm.system.db.planner_stats()["scans"] == 0
    before = dict(submissions.planner_stats)
    assert submissions.find({"job_id": storm.first[0].job_id}).count() == 1
    after = submissions.planner_stats
    assert (after["index_hits"] - before["index_hits"],
            after["scans"] - before["scans"],
            after["docs_examined"] - before["docs_examined"]) == (1, 0, 1)
    assert len(submissions) > 1


def test_worker_fetch_cache_saves_bytes(storm):
    assert sum(w.fetch_cache_stats()["hit_bytes"]
               for w in storm.system.workers) > 0
