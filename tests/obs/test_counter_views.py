"""Counters live in one place: the metrics registry, read through
:class:`CounterGroup` views (``monitor.counters``, ``broker.counters``).
A collection's planner counts are a plain dict the database sums."""

import pytest

from repro.core.system import RaiSystem
from repro.docdb.database import DocumentDB

pytestmark = pytest.mark.obs

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


class TestPlannerStatsView:
    def test_dict_surface(self):
        coll = DocumentDB().collection("submissions")
        coll.create_index("x")
        coll.insert_one({"x": 1})
        coll.find({"x": 1})      # index hit
        coll.find({"y": 1})      # collection scan
        coll.find({"y": 2})      # collection scan
        assert coll.planner_stats == {"index_hits": 1, "range_hits": 0,
                                      "scans": 2, "docs_examined": 3}

    def test_docdb_aggregates_across_collections(self):
        db = DocumentDB()
        a = db.collection("a")
        b = db.collection("b")
        a.create_index("x")
        a.insert_one({"x": 1})
        b.insert_one({"y": 1})
        a.find({"x": 1})      # index hit on a
        b.find({"y": 1})      # collection scan on b
        agg = db.planner_stats()
        assert agg["index_hits"] >= 1
        assert agg["scans"] >= 1
        # The aggregate is the sum of the collections' own counts.
        assert agg["scans"] == a.planner_stats["scans"] + \
            b.planner_stats["scans"]


class TestMonitorCountersInRegistry:
    def test_incr_lands_in_system_registry(self):
        system = RaiSystem.standard(num_workers=1, seed=11)
        system.monitor.incr("storage_retries")
        system.monitor.incr("storage_retries", 2)
        assert system.metrics.value("storage_retries") == 3
        assert system.monitor.counters.get("storage_retries") == 3
        assert system.monitor.counters.as_dict()["storage_retries"] == 3

    def test_worker_tallies_flow_through(self):
        system = RaiSystem.standard(num_workers=1, seed=11)
        client = system.new_client(team="views")
        client.stage_project(FILES)
        system.run(client.submit())
        # A count written on the client's upload path is in the registry.
        assert system.metrics.value("bytes_uploaded") > 0
        assert len(system.db.collection("submissions")) == 1
        assert system.workers[0].fetch_cache_stats()["miss_bytes"] > 0


class TestBrokerCountersInRegistry:
    def test_prefixed_series_and_legacy_property(self):
        system = RaiSystem.standard(num_workers=1, seed=11)
        client = system.new_client(team="views")
        client.stage_project(FILES)
        system.run(client.submit())
        broker = system.broker
        # Legacy accessors...
        assert broker.counters.get("messages_published") > 0
        assert broker.total_bytes_published > 0
        # ...are views over the shared, prefixed registry series.
        assert system.metrics.value("broker_messages_published") == \
            broker.counters.get("messages_published")
        assert system.metrics.value("broker_bytes_published") == \
            broker.total_bytes_published
        # And they sit in the SAME registry as monitor counters.
        assert system.metrics.value("bytes_uploaded") == \
            system.monitor.counters.get("bytes_uploaded") > 0
