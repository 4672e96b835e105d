"""Ranking reads copy only what they use, and answer as a full read did.

``team_rank`` and ``anonymized_view`` read the leaderboard through a
projection of ``team``, ``internal_time`` and ``recorded_at``, and a
cursor applies an include projection to the stored document before it
copies.  Over generated rankings, ties in time and in recording instant
included, both answer exactly what the full, sorted, deep-copied read
gives.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranking import RankingService, _anonymize
from repro.docdb import DocumentDB

rows = st.lists(
    st.tuples(st.sampled_from([f"team{i}" for i in range(8)]),
              st.sampled_from([0.5, 1.0, 1.0, 2.5]),
              st.sampled_from([10.0, 10.0, 20.0])),
    max_size=14)


def _service(recorded) -> RankingService:
    service = RankingService(DocumentDB())
    for team, time, at in recorded:
        service.record_final(team=team, internal_time=time,
                             instructor_time=time * 1.1, correctness=0.9,
                             username=f"{team}-u", job_id=f"job-{team}",
                             at=at)
    return service


def _full_view(board, viewer: str) -> list:
    return [{"rank": row["rank"],
             "team": row["team"] if row["team"] == viewer
             else _anonymize(row["team"]),
             "internal_time": row["internal_time"],
             "is_you": row["team"] == viewer} for row in board]


@settings(max_examples=80)
@given(recorded=rows, viewer=st.sampled_from(["team0", "team3", "ghost"]),
       limit=st.one_of(st.none(), st.integers(0, 9)))
def test_projected_reads_answer_as_the_full_read(recorded, viewer, limit):
    service = _service(recorded)
    board = service.leaderboard()
    ranks = {row["team"]: row["rank"] for row in board}
    assert service.team_rank(viewer) == ranks.get(viewer)
    full = board if limit is None else service.leaderboard(limit)
    assert service.anonymized_view(viewer, limit) == _full_view(full,
                                                                 viewer)


@settings(max_examples=60)
@given(docs=st.lists(st.fixed_dictionaries({
    "team": st.sampled_from("abcd"),
    "internal_time": st.sampled_from([1.0, 2.0]),
    "nested": st.fixed_dictionaries({"x": st.lists(st.integers(),
                                                   max_size=3)}),
    "other": st.integers()}), max_size=6),
    projection=st.sampled_from([
        {"team": 1, "internal_time": 1}, {"team": 1, "_id": 0},
        {"nested.x": 1}, {"nested": 1}, {"other": 0}, None]))
def test_a_projected_cursor_is_a_private_copy(docs, projection):
    collection = DocumentDB().collection("c")
    for doc in docs:
        collection.insert_one(doc)
    stored = copy.deepcopy(list(collection.find({})))
    out = collection.find({}, projection).sort("internal_time").to_list()
    keep = [k for k, v in (projection or {}).items() if v and k != "_id"]
    for row in out:
        if keep:
            assert set(row) <= {"_id", *(k.split(".")[0] for k in keep)}
        for value in row.values():
            if isinstance(value, dict):
                value.setdefault("x", []).append("mutated")
    assert len(out) == len(docs)
    assert list(collection.find({})) == stored
