"""Scheduler-aware dequeue and prefetch on the broker channel."""

import pytest

from repro.broker import Consumer, MessageBroker
from repro.sched import JobScheduler

pytestmark = pytest.mark.sched


@pytest.fixture
def broker(sim):
    return MessageBroker(sim)


@pytest.fixture
def channel(sim, broker):
    channel = broker.channel("rai/tasks")
    channel.set_scheduler(JobScheduler(lambda: sim.now))
    return channel


def publish(broker, team: str) -> None:
    broker.publish("rai", {"team": team})


class TestScheduledDequeue:
    def test_select_reorders_the_queue(self, sim, broker, channel):
        for _ in range(5):
            publish(broker, "storm")
        publish(broker, "quiet")
        consumer = Consumer(broker, "rai/tasks")

        claimed = []

        def worker(sim):
            for _ in range(3):
                msg = yield consumer.get()
                claimed.append(msg.body["team"])
                consumer.ack(msg)

        sim.run(until=sim.process(worker(sim)))
        # The quiet team's single job jumps most of the storm.
        assert "quiet" in claimed

    def test_dispatch_observed_per_claim(self, sim, broker, channel):
        publish(broker, "a")
        publish(broker, "b")
        consumer = Consumer(broker, "rai/tasks")

        def worker(sim):
            for _ in range(2):
                msg = yield consumer.get()
                consumer.ack(msg)

        sim.run(until=sim.process(worker(sim)))
        assert channel.scheduler.total_dispatched == 2

    def test_fifo_without_scheduler(self, sim, broker):
        channel = broker.channel("rai/tasks")
        assert channel.scheduler is None
        for team in ("first", "second"):
            broker.publish("rai", {"team": team})
        consumer = Consumer(broker, "rai/tasks")

        def worker(sim):
            msg = yield consumer.get()
            consumer.ack(msg)
            return msg.body["team"]

        proc = sim.process(worker(sim))
        sim.run(until=proc)
        assert proc.value == "first"


class TestPrefetch:
    def test_try_get_claims_without_blocking(self, sim, broker, channel):
        publish(broker, "a")
        consumer = Consumer(broker, "rai/tasks")
        msg = consumer.try_get()
        assert msg is not None and msg.body["team"] == "a"
        # Claimed in the caller's own step: no kernel event ran.
        assert channel.total_delivered == 1 and channel.depth == 0
        assert msg.id in channel.in_flight
        consumer.ack(msg)
        assert channel.total_acked == 1

    def test_try_get_empty_returns_none(self, broker, channel):
        consumer = Consumer(broker, "rai/tasks")
        assert consumer.try_get() is None

    def test_prefetch_never_steals_from_blocked_get(self, sim, broker,
                                                    channel):
        blocked = Consumer(broker, "rai/tasks")
        eager = Consumer(broker, "rai/tasks")
        got = []

        def sleeper(sim):
            msg = yield blocked.get()
            got.append(msg)
            blocked.ack(msg)

        sim.process(sleeper(sim))

        def late_publish(sim):
            yield sim.timeout(1.0)
            publish(broker, "a")
            # The message must go to the blocked get, not the prefetcher.
            assert eager.try_get() is None

        sim.run(until=sim.process(late_publish(sim)))
        sim.run()
        assert len(got) == 1

    def test_depth_tracks_prefetch(self, broker, channel):
        assert channel.depth == 0
        publish(broker, "a")
        publish(broker, "b")
        consumer = Consumer(broker, "rai/tasks")
        assert channel.depth == 2
        consumer.try_get()
        assert channel.depth == 1

    def test_stats_count_prefetches(self, broker, channel):
        # A prefetch is a delivery like any other: counted, and seen by
        # the scheduler.
        publish(broker, "a")
        Consumer(broker, "rai/tasks").try_get()
        assert channel.total_delivered == 1
        assert channel.scheduler.total_dispatched == 1
