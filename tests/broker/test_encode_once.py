"""Encode-once publishing: one serialization per publish, shared fan-out."""

import pytest

from repro.broker import Consumer, MessageBroker
from repro.broker import message as message_mod
from repro.broker.message import encode_body


@pytest.fixture
def broker(sim):
    return MessageBroker(sim)


@pytest.fixture
def counting_encoder(monkeypatch):
    """Wrap the module-level encoder so every real encode is counted."""
    calls = {"n": 0}
    real = encode_body

    def counted(body):
        calls["n"] += 1
        return real(body)

    monkeypatch.setattr(message_mod, "encode_body", counted)
    return calls


class TestEncodeOnce:
    def test_publish_encodes_exactly_once(self, broker, counting_encoder):
        msg = broker.publish("rai", {"job_id": "job-1", "blob": "x" * 500})
        assert counting_encoder["n"] == 1
        assert msg.body["job_id"] == "job-1"

    def test_fanout_copies_share_payload(self, broker, counting_encoder):
        for i in range(3):
            Consumer(broker, f"rai/channel-{i}")
        original = broker.publish("rai", {"n": 1})
        assert counting_encoder["n"] == 1
        copies = [broker.topic("rai").channels[f"channel-{i}"].items[-1]
                  for i in range(3)]
        for copy in copies:
            assert copy is not original
            assert copy.body is original.body
        assert counting_encoder["n"] == 1

    def test_ten_channel_fanout_still_one_encode(self, broker,
                                                 counting_encoder):
        for i in range(10):
            Consumer(broker, f"rai/c{i}")
        for _ in range(5):
            broker.publish("rai", {"payload": list(range(50))})
        assert counting_encoder["n"] == 5

    def test_size_limit_checked_against_encoded_payload(self, sim):
        from repro.broker.broker import MAX_MESSAGE_BYTES
        from repro.errors import MessageTooLarge
        # The JSON quotes and key push the encoding past the limit.
        with pytest.raises(MessageTooLarge):
            MessageBroker(sim).publish("rai",
                                       {"blob": "x" * MAX_MESSAGE_BYTES})
