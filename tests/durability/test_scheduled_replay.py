"""WAL replay of deliveries from a scheduled (per-team) queue.

A scheduled channel holds its backlog as per-team FIFOs in two bands;
replay finds each delivered message through the queue's id map, and a
snapshot writes the queue in global order whatever its grouping.  Here
500 messages from 37 teams straddle the deadline window, and deliveries
mix the scheduler's own picks with claims of arbitrary queued messages.
"""

import random

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RaiSystem

pytestmark = pytest.mark.durability

N_MESSAGES = 500
N_TEAMS = 37
DEADLINE = 100_000.0
IN_WINDOW = DEADLINE - 3600.0


def _publish_backlog(system) -> None:
    for i in range(N_MESSAGES):
        if i == N_MESSAGES // 2:
            system.run(until=IN_WINDOW)   # the rest lands in the band
        system.broker.publish("rai", {"job_id": f"job-{i:06d}",
                                      "team": f"team{i % N_TEAMS:02d}"})


def test_claims_replay_in_any_order_over_a_deep_backlog(tmp_path):
    system = RaiSystem(seed=21, config=SystemConfig(
        course_deadline_at=DEADLINE))
    system.attach_durability(str(tmp_path / "dur"))
    channel = system.broker.channel("rai/tasks")
    assert channel.scheduler is not None
    _publish_backlog(system)
    queue = channel.items
    assert len(queue.boosted) == len(queue.normal) == N_TEAMS

    rng = random.Random(5)
    for step in range(300):
        if step % 3 == 0:
            assert channel.try_deliver() is not None
        else:
            message_id = rng.choice([m.id for m in channel.items])
            channel.claim(message_id, system.sim.now)
            system.durability.broker_deliver(channel.route, message_id)
    live_queue = [m.id for m in channel.items]
    live_in_flight = list(channel.in_flight)
    assert len(live_queue) == N_MESSAGES - 300
    system.crash_stop()

    restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=0)
    rchannel = restored.broker.channel("rai/tasks")
    # Nothing finished, so recovery puts every in-flight delivery back at
    # the front, in delivery order, ahead of the queue the replay rebuilt.
    assert [m.id for m in rchannel.items] == live_in_flight + live_queue
    assert not rchannel.in_flight
    assert rchannel.total_delivered == 300
    assert rchannel.total_requeued == 300
    assert all(m.attempts == 1 for m in list(rchannel.items)[:300])


def test_snapshot_writes_the_global_order(tmp_path):
    """A checkpoint of a scheduled backlog lists ``items`` in queue
    order, so it restores into a plain FIFO or a scheduled queue alike."""
    system = RaiSystem(seed=22, config=SystemConfig(
        course_deadline_at=DEADLINE))
    channel = system.broker.channel("rai/tasks")
    _publish_backlog(system)
    rng = random.Random(6)
    for _ in range(100):
        channel.claim(rng.choice([m.id for m in channel.items]),
                      system.sim.now)
    snap = channel.to_snapshot()
    ids = [doc["id"] for doc in snap["items"]]
    assert ids == sorted(ids)          # ids are minted in publish order
    assert len(ids) == N_MESSAGES - 100

    plain = system.broker.topic("rai").channel("plain")
    plain.install_snapshot(snap)
    assert [m.id for m in plain.items] == ids
    plain.set_scheduler(channel.scheduler)
    assert [m.id for m in plain.items] == ids
