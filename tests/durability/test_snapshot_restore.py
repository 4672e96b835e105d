"""Snapshot capture/install and full-system restore semantics."""

import os

import pytest

from repro.broker.topic import MAX_ATTEMPTS
from repro.core.config import SystemConfig
from repro.core.system import RaiSystem
from repro.durability.snapshot import (
    capture,
    install,
    load_snapshot,
    write_snapshot,
)
from repro.errors import InvalidCredentials
from repro.storage.chunkstore import CHUNK_BYTES as C, ChunkStore, Manifest

pytestmark = pytest.mark.durability

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def _submit_some(system, n=2, team_prefix="team"):
    clients = []
    for i in range(n):
        c = system.new_client(team=f"{team_prefix}{i}")
        c.stage_project(FILES)
        clients.append(c)
    return system.run_all(c.submit() for c in clients)


class TestSnapshotCodec:
    def test_docdb_roundtrip_preserves_docs_indexes_and_oids(self, tmp_path):
        system = RaiSystem(seed=3)
        coll = system.db.collection("things")
        coll.create_index("k", unique=True)
        coll.create_index("v")
        for i in range(5):
            coll.insert_one({"k": f"k{i}", "v": i})
        snap = capture(system)

        target = RaiSystem(seed=3)
        install(target, snap)
        restored = target.db.collection("things")
        assert len(restored) == 5
        assert restored.find_one({"k": "k3"})["v"] == 3
        # Index specs survived: both fields run indexed.
        before = dict(restored.planner_stats)
        assert restored.find({"k": "k1"}).count() == 1
        assert restored.find({"v": 2}).count() == 1
        after = restored.planner_stats
        assert (after["index_hits"] - before["index_hits"],
                after["scans"] - before["scans"],
                after["docs_examined"] - before["docs_examined"]) == \
            (2, 0, 2)
        # The oid counter continues past restored docs — no collision.
        new_id = restored.insert_one({"k": "fresh", "v": 99})
        assert new_id not in [f"oid-{i:08d}" for i in range(1, 6)]

    def test_broker_roundtrip_preserves_queue_and_dead_letters(self):
        system = RaiSystem(seed=4)
        channel = system.broker.channel("rai/tasks")
        for i in range(3):
            system.broker.publish("rai", {"n": i})
        poison = channel.try_deliver()
        poison.attempts = MAX_ATTEMPTS
        channel.requeue(poison)  # straight to dead letters
        snap = capture(system)

        target = RaiSystem(seed=4)
        install(target, snap)
        restored = target.broker.channel("rai/tasks")
        assert restored.depth == 2
        assert [m.id for m in restored.dead_letters] == [poison.id]
        assert restored.total_dead_lettered == 1

    def test_ephemeral_log_topics_not_snapshotted(self):
        system = RaiSystem(seed=5)
        system.broker.publish("log_job-000001", {"type": "stdout"})
        system.broker.publish("rai", {"n": 1})
        snap = capture(system)
        names = [t["name"] for t in snap["broker"]["topics"]]
        assert names == ["rai"]

    def test_credentials_survive_and_verify(self):
        system = RaiSystem(seed=6)
        cred = system.keystore.issue("student001", team="t1")
        snap = capture(system)
        target = RaiSystem(seed=999)  # different RNG on purpose
        install(target, snap)
        got = target.keystore.verify_pair(cred.access_key, cred.secret_key)
        assert got.username == "student001" and got.team == "t1"
        with pytest.raises(InvalidCredentials):
            target.keystore.verify_pair(cred.access_key, "wrong")


class TestChunkRefcountRebuild:
    def test_rebuild_counts_shared_chunks(self):
        store = ChunkStore()
        shared = b"A" * C + b"B" * C
        m1, _ = store.store(shared + b"C" * C)
        m2, _ = store.store(shared + b"D" * C)
        # Simulate restore: refs wiped, rebuilt from live manifests.
        store._refs = {}
        stats = store.rebuild_refcounts([m1, m2])
        assert stats["manifests"] == 2 and stats["orphaned_chunks"] == 0
        digests = {c.digest for c in m1.chunks} | {c.digest for c in m2.chunks}
        assert set(store._refs) == digests
        # Shared chunks counted once per referencing manifest.
        for ref in m1.chunks[:2]:
            assert store._refs[ref.digest] == 2
        assert store.assemble(m1) == shared + b"C" * C
        # Releasing one manifest keeps the shared chunks alive.
        store.release(m1)
        assert store.assemble(m2) == shared + b"D" * C

    def test_rebuild_drops_orphaned_chunks(self):
        store = ChunkStore()
        m1, _ = store.store(b"A" * C + b"B" * C)
        m2, _ = store.store(b"C" * C + b"D" * C)
        store._refs = {}
        stats = store.rebuild_refcounts([m2])  # m1's object was deleted
        assert stats["orphaned_chunks"] == 2
        assert stats["orphaned_bytes"] == 2 * C
        assert store.assemble(m2) == b"C" * C + b"D" * C

    def test_restore_rebuilds_refcounts_from_manifests(self, tmp_path):
        system = RaiSystem.standard(num_workers=1, seed=8)
        system.attach_durability(str(tmp_path / "dur"))
        _submit_some(system, n=2)
        system.checkpoint()
        system.crash_stop()
        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=1)
        chunk_store = restored.storage.chunk_store
        # Every chunk is referenced, every manifest assembles.
        for bucket in restored.storage.buckets.values():
            for obj in bucket.objects.values():
                assert len(obj.data) == obj.size - obj.padding_bytes
        assert set(chunk_store._refs) == set(chunk_store._chunks)


class TestRestore:
    def test_cold_restart_resumes_semester(self, tmp_path):
        system = RaiSystem.standard(num_workers=2, seed=7)
        system.attach_durability(str(tmp_path / "dur"))
        results = _submit_some(system, n=3)
        assert all(r.status.value == "succeeded" for r in results)
        system.checkpoint()
        system.crash_stop()

        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=2)
        assert restored.sim.now == pytest.approx(system.sim.now)
        assert len(restored.db.collection("submissions")) == 3
        # New work proceeds, with fresh (non-colliding) job ids.
        old_ids = {r.job_id for r in results}
        client = restored.new_client(team="late-team")
        client.stage_project(FILES)
        result = restored.run(client.submit())
        assert result.status.value == "succeeded"
        assert result.job_id not in old_ids

    def test_wal_replay_over_existing_snapshot(self, tmp_path):
        """Mutations after the last checkpoint come back from the WAL."""
        system = RaiSystem.standard(num_workers=2, seed=9)
        system.attach_durability(str(tmp_path / "dur"))
        _submit_some(system, n=1, team_prefix="early")
        system.checkpoint()
        _submit_some(system, n=2, team_prefix="late")  # post-snapshot
        system.crash_stop()

        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=1)
        submissions = restored.db.collection("submissions")
        assert len(submissions) == 3
        teams = {d["team"] for d in submissions.find({})}
        assert teams == {"early0", "late0", "late1"}
        replay = restored.events.query(type="durability.replay")[-1]
        assert replay.fields["replayed"] > 0

    def test_wal_only_restore_without_checkpoint(self, tmp_path):
        """attach_durability's initial checkpoint makes the directory
        self-sufficient even if the operator never checkpoints again."""
        system = RaiSystem.standard(num_workers=1, seed=10)
        system.attach_durability(str(tmp_path / "dur"))
        _submit_some(system, n=2)
        system.crash_stop()  # no explicit checkpoint after the storm
        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=1)
        assert len(restored.db.collection("submissions")) == 2

    def test_snapshot_during_active_writes_is_consistent(self, tmp_path):
        """Checkpointing mid-storm must neither disturb the live run nor
        capture a state that cannot finish the storm after restore."""
        system = RaiSystem.standard(num_workers=1, seed=11)
        system.attach_durability(str(tmp_path / "dur"))
        clients = []
        for i in range(4):
            c = system.new_client(team=f"mid{i}")
            c.stage_project(FILES)
            clients.append(c)
        procs = [system.sim.process(c.submit(wait_timeout=4 * 3600.0))
                 for c in clients]
        submissions = system.db.collection("submissions")
        t = 0.0
        while len(submissions) < 1:
            t += 5.0
            system.run(until=t)
        system.checkpoint()  # mid-storm: jobs queued and in flight
        for proc in procs:
            system.run(proc)
        assert len(submissions) == 4  # live run undisturbed

        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=2)
        rsub = restored.db.collection("submissions")
        t2 = restored.sim.now
        while len(rsub) < 4:
            t2 += 50.0
            restored.run(until=t2)
            assert t2 < 1e7
        per_job = {}
        for doc in rsub.find({}):
            per_job[doc["job_id"]] = per_job.get(doc["job_id"], 0) + 1
        assert all(n == 1 for n in per_job.values())

    def test_restore_of_empty_directory(self, tmp_path):
        """No snapshot, no WAL: restore degrades to a fresh system."""
        restored = RaiSystem.restore(str(tmp_path / "empty"), num_workers=1)
        assert len(restored.db.collection("submissions")) == 0
        client = restored.new_client(team="first")
        client.stage_project(FILES)
        assert restored.run(client.submit()).status.value == "succeeded"


class TestDeadLetterIdempotence:
    def test_drained_dead_letter_stays_drained_after_restore(self, tmp_path):
        """The satellite: a job dead-lettered and drained before the crash
        must not re-enter the queue (or the docdb) after replay."""
        system = RaiSystem(seed=12)
        system.attach_durability(str(tmp_path / "dur"))
        channel = system.broker.channel("rai/tasks")
        system.broker.publish("rai", {"job_id": "job-000001", "kind": "run",
                                      "team": "poison"})
        msg = channel.try_deliver()
        msg.attempts = MAX_ATTEMPTS
        assert channel.requeue(msg) is False  # dead-lettered
        assert system.drain_dead_letters() == 1
        submissions = system.db.collection("submissions")
        assert submissions.find_one({"job_id": "job-000001"})["status"] \
            == "dead_lettered"
        system.crash_stop()

        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=0)
        rchannel = restored.broker.channel("rai/tasks")
        assert rchannel.depth == 0
        assert rchannel.dead_letters == []
        assert len(rchannel.in_flight) == 0
        # Draining again is a no-op: exactly one terminal record, ever.
        assert restored.drain_dead_letters() == 0
        docs = list(restored.db.collection("submissions")
                    .find({"job_id": "job-000001"}))
        assert len(docs) == 1

    def test_undrained_dead_letter_survives_restore(self, tmp_path):
        """Parked (not yet drained) poison messages persist as parked."""
        system = RaiSystem(seed=13)
        system.attach_durability(str(tmp_path / "dur"))
        channel = system.broker.channel("rai/tasks")
        system.broker.publish("rai", {"job_id": "job-000002", "kind": "run"})
        msg = channel.try_deliver()
        msg.attempts = MAX_ATTEMPTS
        channel.requeue(msg)
        system.crash_stop()

        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=0)
        rchannel = restored.broker.channel("rai/tasks")
        assert [m.id for m in rchannel.dead_letters] == [msg.id]
        assert restored.drain_dead_letters() == 1  # drainable exactly once
        assert restored.drain_dead_letters() == 0


class TestInFlightFencing:
    def test_finished_job_not_requeued(self, tmp_path):
        """An in-flight delivery whose job already has a terminal record
        is completed in place on restore, not re-executed."""
        system = RaiSystem(seed=14)
        system.attach_durability(str(tmp_path / "dur"))
        channel = system.broker.channel("rai/tasks")
        system.broker.publish("rai", {"job_id": "job-000009", "kind": "run"})
        msg = channel.try_deliver()
        assert msg.id in channel.in_flight
        # The worker recorded the result but died before acking.
        system.db.collection("submissions").insert_one(
            {"job_id": "job-000009", "status": "succeeded"})
        system.crash_stop()

        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=0)
        rchannel = restored.broker.channel("rai/tasks")
        assert rchannel.depth == 0 and len(rchannel.in_flight) == 0
        replay = restored.events.query(type="durability.replay")[-1]
        assert replay.fields["fenced"] == 1
        assert replay.fields["requeued"] == 0

    def test_unfinished_job_requeued_with_attempts(self, tmp_path):
        system = RaiSystem(seed=15)
        system.attach_durability(str(tmp_path / "dur"))
        channel = system.broker.channel("rai/tasks")
        system.broker.publish("rai", {"job_id": "job-000010", "kind": "run"})
        msg = channel.try_deliver()
        assert msg.attempts == 1
        system.crash_stop()

        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=0)
        rchannel = restored.broker.channel("rai/tasks")
        assert rchannel.depth == 1 and len(rchannel.in_flight) == 0
        requeued = rchannel.items[0]
        assert requeued.id == msg.id
        assert requeued.attempts == 1  # attempt budget preserved

    def test_out_of_budget_in_flight_parks_in_dead_letters(self, tmp_path):
        system = RaiSystem(seed=16)
        system.attach_durability(str(tmp_path / "dur"))
        channel = system.broker.channel("rai/tasks")
        system.broker.publish("rai", {"job_id": "job-000011", "kind": "run"})
        msg = channel.try_deliver()
        # Burn the whole budget through real (journaled) delivery cycles,
        # ending in flight on the final attempt.
        for _ in range(MAX_ATTEMPTS - 1):
            assert channel.requeue(msg) is True
            msg = channel.try_deliver()
        assert msg.attempts == MAX_ATTEMPTS
        assert msg.id in channel.in_flight
        system.crash_stop()

        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=0)
        rchannel = restored.broker.channel("rai/tasks")
        assert len(rchannel.in_flight) == 0
        assert rchannel.depth == 0
        assert len(rchannel.dead_letters) == 1


#: Config fields retired by later builds, with the values a snapshot
#: written before their retirement carries.
SHARD_BALANCER_KEYS = {"shard_steal_threshold": 2,
                       "shard_balance_interval_seconds": 30.0}
UNSET_KNOB_KEYS = {
    "client_bandwidth_bps": 20e6,
    "upload_lifetime_seconds": 30 * 24 * 3600.0,
    "build_lifetime_seconds": 90 * 24 * 3600.0,
    "presign_expiry_seconds": 7 * 24 * 3600.0,
    "dead_letter_sweep_seconds": 300.0,
    "chunk_size_bytes": 4096,
    "sched_quantum_seconds": 5.0,
    "event_log_max_events": 4096,
    "scrape_max_samples": 256,
    "slo_burn_rate_threshold": 1.0,
    "slo_queue_wait_p95_seconds": 30.0,
    "slo_success_target": 0.99,
    "buildcache_max_bytes": 256 << 20,
    "buildcache_ttl_seconds": 14 * 24 * 3600.0,
    "buildcache_replay_seconds": 0.05,
    "buildcache_hit_cost_factor": 0.35,
    "usage_budget_window_seconds": 7 * 24 * 3600.0,
    "solo_jitter": 0.02,
    "contention_jitter": 0.35,
    "warm_pool_ttl_seconds": 900.0,
}
#: Fields retired because only tests set them.
TEST_ONLY_KEYS = {
    "client_wait_timeout_seconds": None,
    "trace_max_traces": 512,
    "deadline_boost_window_seconds": 24 * 3600.0,
    "scrape_interval_seconds": 60.0,
    "slo_fast_window_seconds": 300.0,
    "slo_slow_window_seconds": 3600.0,
    "shard_seed": 0,
    "usage_window_seconds": 3600.0,
}


class TestRetiredConfigKeys:
    @pytest.mark.parametrize("retired", [SHARD_BALANCER_KEYS,
                                         UNSET_KNOB_KEYS, TEST_ONLY_KEYS],
                             ids=["shard_balancer", "unset_knobs",
                                  "test_only_knobs"])
    def test_snapshot_with_retired_config_keys_restores(self, tmp_path,
                                                        retired):
        """A snapshot written before config fields were retired still
        restores; the dropped keys are named in the replay event."""
        path = str(tmp_path / "dur")
        system = RaiSystem.standard(num_workers=2, seed=3,
                                    config=SystemConfig(shards=2))
        system.attach_durability(path)
        _submit_some(system, n=3)
        system.checkpoint()
        live = capture(system)
        snap_file = os.path.join(path, "snapshot.json")
        snap = load_snapshot(snap_file)
        snap["config"].update(retired)
        write_snapshot(snap_file, snap)
        system.crash_stop()

        restored = RaiSystem.restore(path, num_workers=0)
        replay = restored.events.query(type="durability.replay")[-1]
        assert replay.fields["dropped_config"] == sorted(retired)
        assert restored.config == system.config
        after = capture(restored)
        # Restore logs its own replay event and meters its own index
        # rebuild; every other section equals the live system's.
        for section in set(live) - {"events", "usage"}:
            assert after[section] == live[section], section
