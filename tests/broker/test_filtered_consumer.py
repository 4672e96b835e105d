"""Remaining broker corners."""

import pytest

from repro.broker import Consumer, MessageBroker


@pytest.fixture
def broker(sim):
    return MessageBroker(sim)


class TestTopicStats:
    def test_topic_stats_shape(self, sim, broker):
        consumer = Consumer(broker, "rai/tasks")
        broker.publish("rai", {"n": 1})
        topic = broker.topics["rai"]
        assert topic.total_published == 1
        assert topic.channels["tasks"].depth == 1
        assert not topic.ephemeral


class TestAnalysisEdges:
    def test_peak_hour_empty(self):
        from repro.analysis import peak_hour

        peak = peak_hour([], 0, 3600.0)
        assert peak["count"] == 0

    def test_render_table_no_rows(self):
        from repro.analysis import render_table

        text = render_table(["a", "b"], [])
        assert "a" in text
