"""Property-based tests for broker delivery invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import Consumer, MessageBroker
from repro.sim import Simulator

payloads = st.lists(st.integers(min_value=0, max_value=10**6),
                    min_size=1, max_size=25)


class TestDeliveryInvariants:
    @settings(max_examples=30)
    @given(values=payloads, n_consumers=st.integers(1, 4))
    def test_no_loss_no_duplication_within_channel(self, values,
                                                   n_consumers):
        """Every published message is delivered to exactly one consumer."""
        sim = Simulator()
        broker = MessageBroker(sim)
        consumers = [Consumer(broker, "rai/tasks")
                     for _ in range(n_consumers)]
        received = []

        def drain(sim, consumer):
            while True:
                get_event = consumer.get()
                msg = yield get_event
                received.append(msg.body["v"])
                consumer.ack(msg)
                yield sim.timeout(0.1)

        for consumer in consumers:
            sim.process(drain(sim, consumer))
        for v in values:
            broker.publish("rai", {"v": v})
        sim.run(until=1000.0)
        assert sorted(received) == sorted(values)

    @settings(max_examples=30)
    @given(values=payloads)
    def test_single_consumer_preserves_order(self, values):
        sim = Simulator()
        broker = MessageBroker(sim)
        consumer = Consumer(broker, "rai/tasks")
        received = []

        def drain(sim):
            for _ in range(len(values)):
                msg = yield consumer.get()
                received.append(msg.body["v"])
                consumer.ack(msg)

        proc = sim.process(drain(sim))
        for v in values:
            broker.publish("rai", {"v": v})
        sim.run(until=proc)
        assert received == values

    @settings(max_examples=20)
    @given(values=payloads, n_channels=st.integers(1, 3))
    def test_fanout_every_channel_gets_all(self, values, n_channels):
        sim = Simulator()
        broker = MessageBroker(sim)
        buckets = {i: [] for i in range(n_channels)}
        consumers = [Consumer(broker, f"rai/ch{i}")
                     for i in range(n_channels)]

        def drain(sim, i):
            for _ in range(len(values)):
                msg = yield consumers[i].get()
                buckets[i].append(msg.body["v"])
                consumers[i].ack(msg)

        procs = [sim.process(drain(sim, i)) for i in range(n_channels)]
        for v in values:
            broker.publish("rai", {"v": v})
        sim.run(until=sim.all_of(procs))
        for i in range(n_channels):
            assert buckets[i] == values

    @settings(max_examples=20)
    @given(values=payloads,
           requeue_mask=st.lists(st.booleans(), min_size=1, max_size=25))
    def test_requeued_messages_not_lost(self, values, requeue_mask):
        """ack-or-requeue: everything is eventually acked exactly once."""
        sim = Simulator()
        broker = MessageBroker(sim)
        consumer = Consumer(broker, "rai/tasks")
        acked = []

        def drain(sim):
            i = 0
            while len(acked) < len(values):
                msg = yield consumer.get()
                should_requeue = (msg.attempts == 1 and
                                  requeue_mask[i % len(requeue_mask)])
                i += 1
                if should_requeue:
                    consumer.requeue(msg)
                else:
                    acked.append(msg.body["v"])
                    consumer.ack(msg)

        proc = sim.process(drain(sim))
        for v in values:
            broker.publish("rai", {"v": v})
        sim.run(until=proc)
        assert sorted(acked) == sorted(values)
        assert broker.channel("rai/tasks").depth == 0
        assert not broker.channel("rai/tasks").in_flight
