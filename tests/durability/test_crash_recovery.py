"""The acceptance chaos test: full-process crash mid-storm, cold restore.

The scenario the tentpole exists for: a semester's deployment is
checkpointing periodically, a submission storm is in flight, and the
whole process dies — queues, in-flight deliveries, half the results
recorded.  A fresh :class:`RaiSystem` restored from the durability
directory must finish every queued job exactly once: no job lost (the
WAL has it), none run twice (terminal-record fencing skips jobs whose
results survived).
"""

import pytest

from repro.core.system import RaiSystem

pytestmark = [pytest.mark.durability, pytest.mark.chaos]

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}

N_CLIENTS = 6


def _worker_final_events(system):
    """(job_id, finished_at) pairs of results recorded by workers."""
    return [(d["job_id"], d["finished_at"])
            for d in system.db.collection("submissions").find({})]


class TestCrashRecoveryChaos:
    def test_storm_survives_full_restart_exactly_once(self, tmp_path):
        # -- epoch 1: one slow worker, six clients, checkpoint mid-storm --
        system = RaiSystem.standard(num_workers=1, seed=11)
        system.attach_durability(str(tmp_path / "dur"))
        clients = []
        for i in range(N_CLIENTS):
            c = system.new_client(team=f"team{i}")
            # Distinct sources per team: every build truly executes (a
            # shared source tree would let the build cache collapse the
            # storm before the crash window opens).
            c.stage_project(dict(FILES, **{
                "main.cu": FILES["main.cu"] + f"// team {i}\n"}))
            clients.append(c)
        for c in clients:
            system.sim.process(c.submit(wait_timeout=4 * 3600.0))

        submissions = system.db.collection("submissions")
        t = 0.0
        checkpointed = False
        checkpoint_done = 0
        # Fine-grained polls: once the first builds are cached, the tail
        # of the storm replays fast, and a coarse window would watch it
        # finish wholesale without ever exposing a mid-storm crash point.
        while True:
            t += 2.0
            system.run(until=t)
            done = len(submissions)
            if done >= 1 and not checkpointed:
                system.checkpoint()  # snapshot while the storm rages
                checkpointed = True
                checkpoint_done = done
            # Crash only after the WAL has grown past the checkpoint (at
            # least one more completion journaled) with work still queued.
            elif checkpointed and checkpoint_done < done < N_CLIENTS:
                break
            assert t < 1e6, "storm never reached the crash window"

        finished_before = _worker_final_events(system)
        channel = system.broker.channel("rai/tasks")
        pending_before = channel.depth + len(channel.in_flight)
        assert pending_before >= 1, "nothing pending at crash time"
        assert checkpointed
        system.crash_stop()  # the process dies; no farewell snapshot

        # -- epoch 2: cold start from disk, more capacity, drain --------
        restored = RaiSystem.restore(str(tmp_path / "dur"), num_workers=2)
        # The clock resumes at the last journaled instant — at or before
        # the old horizon (idle time past the final mutation is not
        # observable from the log), and never before a recorded result.
        assert restored.sim.now <= system.sim.now
        assert restored.sim.now >= max(
            (at for _, at in finished_before), default=0.0)
        rsub = restored.db.collection("submissions")
        assert len(rsub) == len(finished_before)

        resume_at = restored.sim.now
        t2 = restored.sim.now
        while len(rsub) < N_CLIENTS:
            t2 += 50.0
            restored.run(until=t2)
            assert t2 < 1e7, "restored deployment never drained the storm"

        # -- exactly once: one terminal record per job, ever ------------
        per_job = {}
        for doc in rsub.find({}):
            per_job.setdefault(doc["job_id"], []).append(doc)
        assert len(per_job) == N_CLIENTS
        for job_id, docs in per_job.items():
            assert len(docs) == 1, f"{job_id} recorded {len(docs)} times"
        # Results finished before the crash were not re-executed: same
        # (job_id, finished_at) pairs reappear verbatim after restore.
        finished_after = _worker_final_events(restored)
        assert set(finished_before) <= set(finished_after)
        # And the balance of the storm really ran post-restore.
        new = [f for f in finished_after if f not in set(finished_before)]
        assert len(new) == N_CLIENTS - len(finished_before)
        assert all(at >= resume_at for _, at in new)

        # The event log tells the recovery story.
        replay = restored.events.query(type="durability.replay")[-1]
        assert replay.fields["replayed"] > 0
        assert replay.fields["anomalies"] == 0
        assert replay.fields["requeued"] + replay.fields["fenced"] >= 1
        # Exactly one restore, timed.
        (replay,) = restored.events.query(type="durability.replay")
        assert replay.fields["duration_s"] > 0

    def test_double_crash_double_restore(self, tmp_path):
        """Recovery is re-enterable: crash the restored deployment too."""
        system = RaiSystem.standard(num_workers=1, seed=21)
        system.attach_durability(str(tmp_path / "dur"))
        clients = []
        for i in range(4):
            c = system.new_client(team=f"t{i}")
            c.stage_project(FILES)
            clients.append(c)
        for c in clients:
            system.sim.process(c.submit(wait_timeout=4 * 3600.0))
        submissions = system.db.collection("submissions")
        t = 0.0
        while len(submissions) < 1:
            t += 10.0
            system.run(until=t)
        system.crash_stop()

        middle = RaiSystem.restore(str(tmp_path / "dur"), num_workers=1)
        msub = middle.db.collection("submissions")
        t = middle.sim.now
        while len(msub) < 2:
            t += 25.0
            middle.run(until=t)
            assert t < 1e7
        middle.crash_stop()  # die again, mid-drain

        final = RaiSystem.restore(str(tmp_path / "dur"), num_workers=2)
        fsub = final.db.collection("submissions")
        t = final.sim.now
        while len(fsub) < 4:
            t += 50.0
            final.run(until=t)
            assert t < 1e7
        per_job = {}
        for doc in fsub.find({}):
            per_job[doc["job_id"]] = per_job.get(doc["job_id"], 0) + 1
        assert len(per_job) == 4
        assert all(n == 1 for n in per_job.values())


class TestReplayAnomalies:
    def _crashed(self, tmp_path, *records):
        system = RaiSystem.standard(num_workers=0, seed=3)
        system.attach_durability(str(tmp_path / "dur"))
        system.db.collection("notes").insert_one({"_id": "n1", "text": "a"})
        for record in records:
            system.durability.wal.append(record)
        system.crash_stop()
        return str(tmp_path / "dur")

    def test_malformed_records_are_counted_and_replay_continues(self,
                                                                tmp_path):
        path = self._crashed(
            tmp_path,
            {"t": 0.0},                                         # no "op"
            {"t": 0.0, "op": "db_insert", "c": "notes", "doc": ["_id"]},
            {"t": 0.0, "op": "db_insert", "c": "notes",
             "doc": {"_id": "n2", "text": "b"}})
        restored = RaiSystem.restore(path, num_workers=0)
        assert restored.durability.replay_anomalies == 2
        notes = restored.db.collection("notes")
        assert sorted(d["_id"] for d in notes.find({})) == ["n1", "n2"]

    def test_an_unexpected_error_in_a_handler_is_not_swallowed(
            self, tmp_path, monkeypatch):
        from repro.docdb.database import Collection

        def buggy(self, doc):
            raise RuntimeError("a bug, not a bad record")

        # The replayed db_insert reaches the collection's own insert.
        path = self._crashed(tmp_path)
        monkeypatch.setattr(Collection, "add_document", buggy)
        with pytest.raises(RuntimeError, match="a bug"):
            RaiSystem.restore(path, num_workers=0)
