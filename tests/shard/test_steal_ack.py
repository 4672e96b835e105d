"""A stolen message is acked on the channel that delivered it.

Regression: ``StealingConsumer._source_channel`` chose the channel by
truthiness, and a ``Channel`` whose queue is empty is falsy
(``Store.__len__``).  Stealing the victim's *last* message therefore acked
it on the thief's home channel: the victim's in-flight entry leaked and a
caretaker sweep would have redelivered it — a duplicate execution.
"""

import pytest

from repro.broker.broker import MessageBroker
from repro.sched import JobScheduler, RuntimeEstimator, SchedulerPolicy
from repro.shard import ShardMap
from repro.shard.plane import ShardedControlPlane
from repro.sim.kernel import Simulator

pytestmark = pytest.mark.shard


@pytest.fixture
def plane():
    sim = Simulator()
    return ShardedControlPlane(
        MessageBroker(sim), ShardMap(2),
        scheduler_factory=lambda p: JobScheduler(
            lambda: sim.now, SchedulerPolicy(), RuntimeEstimator()))


def _steal_last_message(plane):
    """Partition 1's consumer steals the only message queued on 0."""
    victim, home = plane.channels
    plane.broker.publish(plane.shard_map.topic(0), {"job_id": "j1"})
    thief = plane.consumer(1)
    message = thief.try_get()
    assert message is not None and plane.steals_in[1] == 1
    assert len(victim) == 0 and not victim     # the falsy-channel trap
    assert list(victim.in_flight) == [message.id]
    return thief, message, victim, home


@pytest.mark.parametrize("verb", ["ack", "ack_release"])
def test_ack_of_stolen_last_message_clears_the_victim(plane, verb):
    thief, message, victim, home = _steal_last_message(plane)
    getattr(thief, verb)(message)
    assert len(victim.in_flight) == 0
    assert victim.total_acked == 1 and home.total_acked == 0
    # Nothing is left for a caretaker to redeliver.
    assert victim.requeue_stale(0.0) == 0
    assert victim.total_requeued == 0 and victim.depth == 0


def test_requeue_of_stolen_last_message_returns_it_to_the_victim(plane):
    thief, message, victim, home = _steal_last_message(plane)
    assert thief.requeue(message) is True
    assert len(victim.in_flight) == 0
    assert victim.depth == 1 and home.depth == 0
