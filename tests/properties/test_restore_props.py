"""Property: a restored deployment is the live one at the crash.

A deployment journaling to a durability directory runs a drawn storm —
submissions, poison task messages the workers requeue until they are
dead-lettered, a caretaker requeueing stale deliveries on a short
in-flight timeout, dead-letter drains and checkpoints at drawn instants —
and crash-stops at a drawn sim instant.  ``snapshot.capture`` of
``RaiSystem.restore(directory)`` must equal the live capture at the crash,
with recovery's own step applied and the soft state DESIGN.md §3h names
taken as of the last checkpoint:

- every in-flight delivery is an orphan: one whose job has a submissions
  record settles as acked, the rest return to the front of the queue in
  delivery order, or to the dead letters when out of attempts;
- the usage and cost books and the build-cache entries are the
  checkpoint's (none is journaled);
- an object's last-use time is the checkpoint's, or its put's (reads are
  not journaled), and a delivered message's ``span_id`` header is the one
  it was published with (delivery spans are not journaled);
- the event ring and the clock are not compared, and the id watermarks
  (process-wide counters) need only not go back.
"""

import copy
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.topic import MAX_ATTEMPTS
from repro.core.config import SystemConfig
from repro.core.system import RaiSystem
from repro.durability.snapshot import capture, load_snapshot

pytestmark = pytest.mark.durability

SOURCE = "// @rai-sim quality=0.8 impl=analytic\n"
HORIZON = 200.0


def _as_recovered(live: dict, checkpoint: dict) -> dict:
    """What restore must rebuild from ``live``'s directory."""
    want = copy.deepcopy(live)
    for section in ("usage", "cost", "buildcache"):
        want[section] = checkpoint[section]
    finished = {doc.get("job_id") for name, coll in live["db"].items()
                if name.partition(".")[0] == "submissions"
                for doc in coll["docs"]}
    for topic in want["broker"]["topics"]:
        for channel in topic["channels"]:
            totals, front = channel["totals"], []
            for msg in channel.pop("in_flight"):
                body = msg["body"] if isinstance(msg["body"], dict) else {}
                if body.get("job_id") in finished - {None}:
                    totals["acked"] += 1
                    continue
                msg["delivered_at"] = None
                if msg["attempts"] >= MAX_ATTEMPTS:
                    channel["dead_letters"].append(msg)
                    totals["dead_lettered"] += 1
                else:
                    front.append(msg)
                    totals["requeued"] += 1
            channel["items"][:0] = front
            channel["in_flight"] = []
    last_use = {(bucket["name"], obj["key"], obj["created_at"]):
                obj["last_used_at"]
                for bucket in checkpoint["storage"]["buckets"]
                for obj in bucket["objects"]}
    for bucket in want["storage"]["buckets"]:
        for obj in bucket["objects"]:
            obj["last_used_at"] = last_use.get(
                (bucket["name"], obj["key"], obj["created_at"]),
                obj["created_at"])
    return want


def _compared(snap: dict) -> dict:
    """``snap`` without the clock, the event ring, the id watermarks and
    delivery spans."""
    snap = {k: v for k, v in snap.items()
            if k not in ("now", "events", "watermarks")}
    for topic in snap["broker"]["topics"]:
        for channel in topic["channels"]:
            for msg in channel["items"] + channel["dead_letters"]:
                if msg["attempts"] and msg["headers"]:
                    msg["headers"] = {k: v for k, v in msg["headers"].items()
                                      if k != "span_id"}
    return snap


@pytest.mark.parametrize("shards", [1, 4])
@settings(max_examples=100)
@given(seed=st.integers(0, 3), teams=st.integers(1, 4),
       rounds=st.integers(1, 2), poison=st.integers(0, 2),
       in_flight_timeout=st.sampled_from([4.0, 12.0, 40.0]),
       drains=st.lists(st.floats(0.0, HORIZON), max_size=2),
       checkpoints=st.lists(st.floats(0.0, HORIZON), max_size=2),
       crash_at=st.floats(1.0, HORIZON))
def test_restore_equals_the_live_state_at_the_crash(
        shards, seed, teams, rounds, poison, in_flight_timeout, drains,
        checkpoints, crash_at):
    with tempfile.TemporaryDirectory() as path:
        system = RaiSystem.standard(num_workers=2, seed=seed,
                                    config=SystemConfig(shards=shards))
        system.attach_durability(path)
        system.start_caretaker(interval=2.0,
                               in_flight_timeout=in_flight_timeout)
        sim = system.sim

        def student(i):
            client = system.new_client(team=f"team{i}")
            for r in range(rounds):
                client.stage_project({"main.cu": SOURCE + f"// {i} {r}\n"})
                yield from client.submit(wait_timeout=HORIZON)
                yield sim.timeout(system.config.rate_limit_seconds + 1.0)

        def at(t, action):
            yield sim.timeout(t)
            action()

        for i in range(teams):
            sim.process(student(i))
        for i in range(poison):
            _, topic = system.shards.route(f"poison{i}")
            system.broker.publish(topic, {"job_id": f"poison-{i}"})
        for t in drains:
            sim.process(at(t, system.drain_dead_letters))
        for t in checkpoints:
            sim.process(at(t, system.checkpoint))
        system.run(until=crash_at)
        live = capture(system)
        checkpoint = load_snapshot(os.path.join(path, "snapshot.json"))
        system.crash_stop()

        restored = RaiSystem.restore(path, num_workers=0)
        got = capture(restored)
        assert restored.durability.replay_anomalies == 0
        assert all(got["watermarks"][k] >= n
                   for k, n in live["watermarks"].items())
        assert _compared(got) == _compared(_as_recovered(live, checkpoint))
