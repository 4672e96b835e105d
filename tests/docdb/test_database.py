"""Unit tests for collections and the database."""

import pytest

from repro.docdb import DocumentDB
from repro.errors import DuplicateKeyError


@pytest.fixture
def db():
    return DocumentDB()


@pytest.fixture
def runs(db):
    coll = db["runs"]
    coll.insert_many([
        {"team": "t1", "time": 2.5, "kind": "run"},
        {"team": "t2", "time": 0.8, "kind": "final"},
        {"team": "t3", "time": 1.1, "kind": "final"},
    ])
    return coll


class TestInsert:
    def test_generates_ids(self, db):
        coll = db["c"]
        first = coll.insert_one({"a": 1})
        second = coll.insert_one({"a": 2})
        assert first != second
        assert coll.find_one({"_id": first})["a"] == 1

    def test_explicit_id_respected(self, db):
        db["c"].insert_one({"_id": "mine", "a": 1})
        assert db["c"].find_one({"_id": "mine"}) is not None

    def test_duplicate_id_rejected(self, db):
        db["c"].insert_one({"_id": "x"})
        with pytest.raises(DuplicateKeyError):
            db["c"].insert_one({"_id": "x"})

    def test_non_dict_rejected(self, db):
        from repro.errors import DocDbError

        with pytest.raises(DocDbError):
            db["c"].insert_one(["not", "a", "doc"])

    def test_insert_isolates_caller_object(self, db):
        doc = {"a": {"b": 1}}
        db["c"].insert_one(doc)
        doc["a"]["b"] = 999
        assert db["c"].find_one({})["a"]["b"] == 1


class TestFind:
    def test_find_all(self, runs):
        assert runs.find().count() == 3

    def test_find_filtered(self, runs):
        assert runs.find({"kind": "final"}).count() == 2

    def test_find_one_none_when_missing(self, runs):
        assert runs.find_one({"team": "ghost"}) is None

    def test_sort_limit_skip(self, runs):
        teams = [d["team"] for d in
                 runs.find().sort([("time", 1)]).limit(2)]
        assert teams[1] == "t3"

    def test_sort_descending(self, runs):
        times = [d["time"] for d in runs.find().sort([("time", -1)])]
        assert times == [2.5, 1.1, 0.8]

    def test_projection_include(self, runs):
        doc = runs.find({"team": "t1"}, projection={"time": 1}).first()
        assert set(doc) == {"_id", "time"}

    def test_projection_exclude(self, runs):
        doc = runs.find({"team": "t1"},
                        projection={"time": 0, "_id": 0}).first()
        assert set(doc) == {"team", "kind"}

    def test_results_are_isolated_copies(self, runs):
        doc = runs.find_one({"team": "t1"})
        doc["time"] = 999
        assert runs.find_one({"team": "t1"})["time"] == 2.5

    def test_count_documents(self, runs):
        assert runs.find().count() == 3
        assert runs.find({"time": {"$lt": 2}}).count() == 2


class TestUpdate:
    def test_update_one(self, runs):
        modified = runs.update_one({"team": "t1"}, {"$set": {"time": 1.0}})
        assert modified == 1
        assert runs.find_one({"team": "t1"})["time"] == 1.0

    def test_no_match_returns_zero(self, runs):
        assert runs.update_one({"team": "ghost"}, {"$set": {"x": 1}}) == 0

    def test_upsert_inserts(self, runs):
        runs.update_one({"team": "t9"},
                        {"$set": {"time": 3.3}}, upsert=True)
        doc = runs.find_one({"team": "t9"})
        assert doc["time"] == 3.3
        assert doc["team"] == "t9"   # filter fields seed the new doc

    def test_upsert_updates_when_exists(self, runs):
        runs.update_one({"team": "t1"},
                        {"$set": {"time": 9.9}}, upsert=True)
        assert runs.find({"team": "t1"}).count() == 1


class TestIndexes:
    def test_unique_index_blocks_duplicates(self, db):
        coll = db["rank"]
        coll.create_index("team", unique=True)
        coll.insert_one({"team": "t1"})
        with pytest.raises(DuplicateKeyError):
            coll.insert_one({"team": "t1"})

    def test_unique_index_blocks_update_collision(self, db):
        coll = db["rank"]
        coll.create_index("team", unique=True)
        coll.insert_one({"team": "t1"})
        coll.insert_one({"team": "t2"})
        with pytest.raises(DuplicateKeyError):
            coll.update_one({"team": "t2"}, {"$set": {"team": "t1"}})
        # failed update must not corrupt the index
        assert coll.find({"team": "t2"}).count() == 1

    def test_index_backfills_existing_docs(self, db):
        coll = db["c"]
        coll.insert_one({"team": "t1"})
        coll.insert_one({"team": "t1"})
        with pytest.raises(DuplicateKeyError):
            coll.create_index_unique_fail = coll.create_index("team",
                                                              unique=True)

    def test_index_fast_path_equals_scan(self, db):
        coll = db["c"]
        for i in range(20):
            coll.insert_one({"team": f"t{i % 5}", "n": i})
        scan = sorted(d["n"] for d in coll.find({"team": "t3"}))
        coll.create_index("team")
        indexed = sorted(d["n"] for d in coll.find({"team": "t3"}))
        assert scan == indexed


class TestDatabase:
    def test_collections_namespaced(self, db):
        db["a"].insert_one({})
        db["b"].insert_one({})
        assert sorted(db._collections) == ["a", "b"]
        assert db.total_documents() == 2

    def test_size_estimate_grows(self, db):
        before = db.estimated_size_bytes()
        db["a"].insert_one({"payload": "x" * 1000})
        assert db.estimated_size_bytes() > before + 900

    def test_stats(self, db):
        db["a"].insert_one({})
        stats = db.stats()
        assert stats["collections"] == {"a": 1}
