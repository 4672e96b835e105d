"""Dispatch properties: work conservation, and per-team queues vs the scan.

**Work conservation across partitions.**  Every deployment runs the partitioned control plane.  Whatever the
partition count, fleet size and arrival pattern, a job must never wait on
a queue while an executor sits parked: a put that leaves a message queued
wakes a parked executor on a sibling partition, which steals it.  A fleet
smaller than its partition count therefore still finishes every job.

The monitor samples every 0.05 sim-s.  A sample that sees a queued plane
message while a plane get is parked re-checks once after every event
already due at that instant (a ``timeout(0)``), so it judges the
quiescent state, not the gap between a put and the woken executor's
resume in the same instant.

**Per-team queues decide exactly as the backlog scan did.**  A scheduled
channel holds per-team FIFOs in a deadline band and a normal band, and
``JobScheduler.select`` reads only the team heads.  :func:`scan_select`
keeps the O(backlog) scan it replaced, here only, as the oracle: over
generated backlogs, boosts, hit-predictor flips, estimator updates,
requeues, orphan recovery, drains and snapshot/restore, every dequeue
takes the message the scan picks from the queue in global order, and
leaves the same deficits (so the same prune).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import MessageBroker
from repro.broker.message import Message
from repro.broker.topic import MAX_ATTEMPTS
from repro.core.config import SystemConfig
from repro.core.system import RaiSystem
from repro.sched import JobScheduler, RuntimeEstimator, SchedulerPolicy
from repro.sim import Simulator

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}
TICK = 0.05


def _parked_while_queued(plane) -> bool:
    queued = any(channel.items for channel in plane.channels)
    return queued and any(not get.triggered for channel in plane.channels
                          for get in channel._gets)


@pytest.mark.shard
@settings(max_examples=30)
@given(shards=st.integers(1, 4), workers=st.integers(1, 5),
       gaps=st.lists(st.integers(0, 40), min_size=1, max_size=7),
       jobs=st.integers(1, 2), seed=st.integers(0, 3))
def test_every_job_runs_and_no_executor_idles_beside_queued_work(
        shards, workers, gaps, jobs, seed):
    system = RaiSystem.standard(num_workers=workers, seed=seed,
                                config=SystemConfig(shards=shards))
    plane = system.shards
    resubmit_gap = system.config.rate_limit_seconds + 5.0
    total = len(gaps) * jobs
    results = []
    violations = []

    def student(index, start):
        client = system.new_client(team=f"team{index:02d}")
        client.stage_project(FILES)
        yield system.sim.timeout(start)
        for k in range(jobs):
            if k:
                yield system.sim.timeout(resubmit_gap)
            results.append((yield from client.submit()))

    def monitor():
        while len(results) < total and not violations:
            yield system.sim.timeout(TICK)
            if _parked_while_queued(plane):
                yield system.sim.timeout(0)
                if _parked_while_queued(plane):
                    violations.append(system.sim.now)

    starts = [0.25 * sum(gaps[:i + 1]) for i in range(len(gaps))]
    system.sim.process(monitor())
    system.run_all([student(i, t) for i, t in enumerate(starts)])

    assert violations == []
    assert len(results) == total
    assert len({r.job_id for r in results}) == total
    assert all(r.succeeded for r in results)
    assert sum(plane.steals_in) == sum(plane.steals_out)
    assert system.queue_depth() == 0
    for channel in plane.channels:
        assert not channel.in_flight
        assert not channel.dead_letters and channel.total_dead_lettered == 0


# -- per-team queues against the backlog scan --------------------------------

def scan_select(sched: JobScheduler, items: list, deficits: dict) -> int:
    """The O(backlog) scan: index into ``items`` (global queue order) of
    the message to dequeue next, updating ``deficits`` as DRR does."""
    if len(items) <= 1:
        return 0
    candidates = [i for i, msg in enumerate(items) if sched._boosted(msg)]
    if not candidates:
        candidates = list(range(len(items)))
    first_index = {}
    for i in candidates:
        key = sched._key(items[i])
        if key not in first_index:
            first_index[key] = i
    if len(first_index) == 1:
        return next(iter(first_index.values()))
    teams = list(first_index)
    cap = sched.policy.deficit_cap_seconds
    costs = {key: sched._cost(key, items[first_index[key]]) for key in teams}
    eligible = [k for k in teams if deficits.get(k, 0.0) >= costs[k]]
    while not eligible:
        for key in teams:
            deficits[key] = min(cap, deficits.get(key, 0.0)
                                + sched.policy.quantum_seconds)
        eligible = [k for k in teams if deficits[k] >= costs[k]]
    winner = min(eligible, key=lambda k: (costs[k], first_index[k]))
    deficits[winner] = deficits.get(winner, 0.0) - costs[winner]
    queued_keys = {sched._key(msg) for msg in items}
    for key in list(deficits):
        if key not in queued_keys:
            del deficits[key]
    return first_index[winner]


DEADLINE, WINDOW = 100.0, 50.0
#: Fair-share keys: four teams, a username-only body and the anonymous
#: bucket (a non-dict body).
SENDERS = ("a", "b", "c", "d", "user", "junk")
TIMES = (0.0, 10.0, 49.9, 50.0, 75.0, 100.0, 100.1, 200.0)

PUT = st.tuples(st.just("put"), st.sampled_from(SENDERS),
                st.sampled_from(TIMES), st.integers(0, 3))
DELIVER = st.tuples(st.just("deliver"))
#: Puts and single dequeues weigh most, so backlogs run deep.
OPS = st.one_of(
    PUT, PUT, PUT, PUT, DELIVER, DELIVER,
    st.tuples(st.just("drain")),
    st.tuples(st.just("flip"), st.integers(0, 3)),
    st.tuples(st.just("observe"), st.sampled_from(SENDERS[:4]),
              st.sampled_from([1.0, 8.0, 30.0, 90.0, 500.0])),
    st.tuples(st.just("requeue"), st.integers(0, 50)),
    st.tuples(st.just("orphans"), st.integers(0, 4)),
    st.tuples(st.just("restore")),
)


def _body(sender: str, n: int, src: int):
    if sender == "junk":
        return "not-a-dict"
    key = "username" if sender == "user" else "team"
    return {key: sender, "n": n, "src": f"src{src}"}


@pytest.mark.sched
@settings(max_examples=300)
@given(ops=st.lists(OPS, min_size=30, max_size=120),
       quantum=st.sampled_from([5.0, 40.0]),
       cap=st.sampled_from([20.0, 120.0]),
       boost=st.sampled_from([True, True, False]),
       hit_srcs=st.sets(st.integers(0, 3)))
def test_per_team_queues_pick_what_the_scan_picks(ops, quantum, cap, boost,
                                                  hit_srcs):
    sim = Simulator()
    broker = MessageBroker(sim)
    hits = {f"src{i}" for i in hit_srcs}

    def predict(msg):
        return isinstance(msg.body, dict) and msg.body["src"] in hits

    policy = SchedulerPolicy(quantum_seconds=quantum, deficit_cap_seconds=cap,
                             deadline_at=DEADLINE if boost else None,
                             deadline_window_seconds=WINDOW)
    sched = JobScheduler(lambda: sim.now, policy=policy,
                         estimator=RuntimeEstimator(), hit_predictor=predict)
    topic = broker.topic("rai")
    channel = topic.channel("tasks")
    channel.set_scheduler(sched)
    oracle = {}
    restores = 0

    def dequeue() -> None:
        items = list(channel.items)
        want = items[scan_select(sched, items, oracle)]
        assert channel.try_deliver() is want
        assert sched._deficits == oracle

    for n, op in enumerate(ops):
        kind = op[0]
        if kind == "put":
            _, sender, ts, src = op
            channel.put(Message("rai", _body(sender, n, src), timestamp=ts))
        elif kind == "deliver" and channel.items:
            dequeue()
        elif kind == "drain":
            while channel.items:
                dequeue()
        elif kind == "flip":
            hits.symmetric_difference_update({f"src{op[1]}"})
        elif kind == "observe":
            sched.note_completion(op[1], op[2])
        elif kind == "requeue" and channel.in_flight:
            held = list(channel.in_flight.values())
            channel.requeue(held[op[1] % len(held)])
        elif kind == "orphans":
            before = list(channel.items)
            held = list(channel.in_flight.values())

            def finished(msg, mask=op[1]):
                body = msg.body if isinstance(msg.body, dict) else {}
                return body.get("n", 0) % 4 == mask

            requeued, fenced = channel.requeue_orphans(finished)
            back = [m for m in held if not finished(m)
                    and m.attempts < MAX_ATTEMPTS]
            assert (requeued, fenced) == \
                (len(back), sum(map(finished, held)))
            assert list(channel.items) == back + before
        elif kind == "restore":
            snap = channel.to_snapshot()
            restores += 1
            channel = topic.channel(f"tasks-{restores}")
            channel.set_scheduler(sched)
            channel.install_snapshot(snap)
            assert [m.id for m in channel.items] == \
                [doc["id"] for doc in snap["items"]]
        assert len(channel.items) == channel.depth == \
            sum(1 for _ in channel.items)
    while channel.items:
        dequeue()
