"""Unit tests for the broker: fan-out, queue semantics, ephemeral reaping."""

import pytest

from repro.broker import Consumer, MessageBroker, Producer
from repro.broker.broker import MAX_MESSAGE_BYTES
from repro.broker.topic import MAX_ATTEMPTS
from repro.errors import MessageTooLarge


@pytest.fixture
def broker(sim):
    return MessageBroker(sim)


class TestPublish:
    def test_publish_returns_message(self, sim, broker):
        msg = broker.publish("rai", {"job": 1})
        assert msg.topic == "rai"
        assert msg.body == {"job": 1}
        assert msg.timestamp == sim.now

    def test_body_must_be_json_safe(self, broker):
        with pytest.raises(TypeError):
            broker.publish("rai", {"bad": object()})

    def test_size_limit(self, sim):
        with pytest.raises(MessageTooLarge):
            MessageBroker(sim).publish("rai",
                                       {"blob": "x" * MAX_MESSAGE_BYTES})

    def test_publish_before_channel_is_buffered(self, sim, broker):
        broker.publish("rai", {"n": 1})
        broker.publish("rai", {"n": 2})
        consumer = Consumer(broker, "rai/tasks")

        def drain(sim):
            out = []
            for _ in range(2):
                msg = yield consumer.get()
                out.append(msg.body["n"])
                consumer.ack(msg)
            return out

        assert sim.run(until=sim.process(drain(sim))) == [1, 2]


class TestChannelSemantics:
    def test_each_channel_gets_a_copy(self, sim, broker):
        a = Consumer(broker, "rai/channel-a")
        b = Consumer(broker, "rai/channel-b")
        broker.publish("rai", {"n": 1})

        def drain(sim, consumer):
            msg = yield consumer.get()
            consumer.ack(msg)
            return msg.body["n"]

        pa = sim.process(drain(sim, a))
        pb = sim.process(drain(sim, b))
        sim.run()
        assert pa.value == 1 and pb.value == 1

    def test_competing_consumers_split_messages(self, sim, broker):
        """Within one channel each message goes to exactly one consumer."""
        consumers = [Consumer(broker, "rai/tasks") for _ in range(2)]
        received = {0: [], 1: []}

        def drain(sim, i):
            while True:
                msg = yield consumers[i].get()
                received[i].append(msg.body["n"])
                consumers[i].ack(msg)
                yield sim.timeout(1)

        for i in range(2):
            sim.process(drain(sim, i))
        for n in range(6):
            broker.publish("rai", {"n": n})
        sim.run(until=10)
        all_received = sorted(received[0] + received[1])
        assert all_received == [0, 1, 2, 3, 4, 5]
        assert received[0] and received[1]  # both got some

    def test_depth_tracks_unconsumed(self, sim, broker):
        broker.channel("rai/tasks")
        for n in range(3):
            broker.publish("rai", {"n": n})
        assert broker.topics["rai"].depth == 3


class TestAckRequeue:
    def test_requeue_redelivers(self, sim, broker):
        consumer = Consumer(broker, "rai/tasks")
        broker.publish("rai", {"n": 1})

        def proc(sim):
            msg = yield consumer.get()
            assert msg.attempts == 1
            consumer.requeue(msg)
            msg2 = yield consumer.get()
            consumer.ack(msg2)
            return msg2.attempts

        assert sim.run(until=sim.process(proc(sim))) == 2

    def test_exhausted_attempts_dead_letter(self, sim):
        broker = MessageBroker(sim)
        consumer = Consumer(broker, "rai/tasks")
        broker.publish("rai", {"n": 1})

        def proc(sim):
            for _ in range(MAX_ATTEMPTS - 1):
                msg = yield consumer.get()
                assert consumer.requeue(msg) is True
            msg = yield consumer.get()
            assert consumer.requeue(msg) is False  # dead-lettered
            return len(broker.channel("rai/tasks").dead_letters)

        assert sim.run(until=sim.process(proc(sim))) == 1

    def test_stats_counts(self, sim, broker):
        consumer = Consumer(broker, "rai/tasks")
        broker.publish("rai", {})

        def proc(sim):
            msg = yield consumer.get()
            consumer.ack(msg)

        sim.run(until=sim.process(proc(sim)))
        channel = broker.channel("rai/tasks")
        assert channel.total_delivered == 1
        assert channel.total_acked == 1
        assert channel.depth == 0


class TestEphemeralTopics:
    def test_log_prefix_is_ephemeral(self, broker):
        assert broker.topic("log_job-1").ephemeral
        assert not broker.topic("rai").ephemeral

    def test_reaped_when_unused(self, sim, broker):
        producer = Producer(broker, "log_job-1")
        consumer = Consumer(broker, "log_job-1/#ch")
        producer.publish({"line": "x"})

        def drain(sim):
            msg = yield consumer.get()
            consumer.ack(msg)

        sim.run(until=sim.process(drain(sim)))
        consumer.close()
        producer.close()
        assert "log_job-1" not in broker.topics

    def test_not_reaped_while_producer_open(self, sim, broker):
        producer = Producer(broker, "log_job-2")
        consumer = Consumer(broker, "log_job-2/#ch")
        consumer.close()
        assert "log_job-2" in broker.topics
        producer.close()
        assert "log_job-2" not in broker.topics

    def test_non_ephemeral_survives(self, sim, broker):
        consumer = Consumer(broker, "rai/tasks")
        consumer.close()
        assert "rai" in broker.topics


class TestHandles:
    def test_closed_producer_rejects_publish(self, broker):
        producer = Producer(broker, "rai")
        producer.close()
        with pytest.raises(RuntimeError):
            producer.publish({})

    def test_closed_consumer_rejects_get(self, broker):
        consumer = Consumer(broker, "rai/tasks")
        consumer.close()
        with pytest.raises(RuntimeError):
            consumer.get()

    def test_context_managers(self, broker):
        with Producer(broker, "log_x") as producer:
            producer.publish({"a": 1})
        with Consumer(broker, "log_x/#ch"):
            pass
        # producer closed, consumer closed, but message still queued →
        # topic not reaped until drained... depth>0 keeps it.
        assert "log_x" in broker.topics

    def test_message_ids_unique_and_ordered(self, broker):
        first = broker.publish("rai", {})
        second = broker.publish("rai", {})
        assert first.id != second.id
        assert first.id < second.id
