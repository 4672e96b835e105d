"""The WAL journals a dedup put as its manifest plus its new chunks.

A dedup ``st_put`` carries the manifest (digests and sizes), the etag,
and base64 of the deflated form of only the chunks the store did not
hold at put time; replay assembles the payload from the chunk store plus
those chunks and calls ``ObjectStore.place_object``.  A plain put, and any ``st_put`` in the
older whole-object shape (``data``), replays from its bytes.
"""

import base64
import random

import pytest

from repro.core.system import RaiSystem
from repro.durability.wal import encode_record
from repro.storage.chunkstore import CHUNK_BYTES, Manifest
from repro.storage.objects import compute_etag

pytestmark = pytest.mark.durability

N_TEAMS = 4
ATTEMPTS = 3


def _listing1_storm(path) -> RaiSystem:
    """Four teams, three Listing 1 submissions each; a resubmission
    changes one small file, so most of its archive's chunks are shared."""
    system = RaiSystem.standard(num_workers=2, seed=11)
    system.attach_durability(str(path))
    gap = system.config.rate_limit_seconds + 5.0

    def student(i: int):
        team = f"team{i:02d}"
        client = system.new_client(team=team, username=f"{team}-student")
        client.stage_project({
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
            "main.cu": ("// @rai-sim quality=0.9 impl=im2col\n"
                        + f"// {team}\n" * 40)})
        yield system.sim.timeout(2.0 * i)
        for attempt in range(ATTEMPTS):
            if attempt:
                client.stage_project({"notes.txt": f"attempt {attempt}\n"})
                yield system.sim.timeout(gap)
            yield from client.submit()

    system.run_all(student(i) for i in range(N_TEAMS))
    return system


def _puts(system) -> list:
    records, _ = system.durability.wal.replay()
    return [r for r in records if r["op"] == "st_put"]


def _object_facts(system, bucket: str, key: str) -> tuple:
    """Etag, manifest document (None for a plain object) and bytes."""
    obj = system.storage.get_object(bucket, key)
    manifest = getattr(obj, "manifest", None)
    return obj.etag, manifest and manifest.to_doc(), obj.data


class TestDedupPutRecords:
    def test_a_put_journals_its_new_chunks_not_its_object(self, tmp_path):
        system = _listing1_storm(tmp_path / "dur")
        dedup = [r for r in _puts(system) if r["dedup"]]
        assert len(dedup) == N_TEAMS * ATTEMPTS
        shared = 0
        for record in dedup:
            assert "data" not in record
            new = sum(len(base64.b64decode(text))
                      for text in record["chunks"].values())
            shared += len(record["chunks"]) < len(record["manifest"])
            assert len(encode_record(record)) <= 1.4 * new + 2048, \
                record["key"]
        # Every resubmission shares chunks with its team's earlier upload.
        assert shared >= N_TEAMS * (ATTEMPTS - 1)

    def test_storm_restores_every_object(self, tmp_path):
        path = tmp_path / "dur"
        system = _listing1_storm(path)
        live = {(r["bucket"], r["key"]):
                _object_facts(system, r["bucket"], r["key"])
                for r in _puts(system)}
        system.crash_stop()
        restored = RaiSystem.restore(str(path), num_workers=0)
        replay = restored.events.query(type="durability.replay")[-1]
        assert replay.fields["anomalies"] == 0
        for key, facts in live.items():
            assert _object_facts(restored, *key) == facts, key


def _payload() -> bytes:
    return random.Random(7).randbytes(3 * CHUNK_BYTES + 100)


class TestReplayShapes:
    FILE_DIGESTS = {"main.cu": "ab" * 32}
    META = {"team": "t", "username": "s"}

    def _restored_object(self, path, journal) -> tuple:
        system = RaiSystem(seed=1)
        system.attach_durability(str(path))
        journal(system)
        system.crash_stop()
        restored = RaiSystem.restore(str(path), num_workers=0)
        return _object_facts(restored, "rai-uploads", "s/job.tar") + (
            restored.events.query(type="durability.replay")[-1]
            .fields["anomalies"],)

    def test_whole_object_st_put_replays_to_the_same_object(self, tmp_path):
        """An ``st_put`` in the older shape, with the whole object in
        ``data``, replays to the object a chunked record replays to."""
        data = _payload()

        def live_put(system):
            system.storage.put_object(
                "rai-uploads", "s/job.tar", data, metadata=self.META,
                dedup=True,
                manifest=Manifest.from_bytes(data, files=self.FILE_DIGESTS))

        def whole_object_record(system):
            system.durability.wal.append({
                "op": "st_put", "t": 0.0, "bucket": "rai-uploads",
                "key": "s/job.tar",
                "data": base64.b64encode(data).decode("ascii"),
                "metadata": self.META, "padding": 0, "dedup": True,
                "file_digests": self.FILE_DIGESTS})

        chunked = self._restored_object(tmp_path / "chunked", live_put)
        whole = self._restored_object(tmp_path / "whole",
                                      whole_object_record)
        assert chunked == whole
        etag, manifest, payload, anomalies = whole
        assert (etag, payload, anomalies) == (compute_etag(data), data, 0)
        assert manifest["files"] == self.FILE_DIGESTS

    def test_an_overwrite_sharing_chunks_restores(self, tmp_path):
        """An overwrite is journaled by its put alone: a delete replayed
        before it would free the chunks the new payload shares."""
        data = _payload()

        def overwrite(system):
            for payload in (data, data, data[:CHUNK_BYTES] + b"edit"):
                system.storage.put_object("rai-uploads", "s/job.tar",
                                          payload, metadata=self.META,
                                          dedup=True)

        etag, _, payload, anomalies = self._restored_object(tmp_path,
                                                            overwrite)
        edited = data[:CHUNK_BYTES] + b"edit"
        assert (etag, payload, anomalies) == (compute_etag(edited), edited, 0)

    def test_a_damaged_chunk_is_an_anomaly(self, tmp_path):
        """A carried chunk that no longer matches the etag is refused with
        a typed error (counted), never stored."""
        data = _payload()
        path = tmp_path / "dur"
        system = RaiSystem(seed=1)
        system.attach_durability(str(path))
        system.storage.put_object("rai-uploads", "s/job.tar", data,
                                  metadata=self.META, dedup=True)
        (put,) = _puts(system)
        digest = next(iter(put["chunks"]))
        put["chunks"][digest] = base64.b64encode(
            b"x" * CHUNK_BYTES).decode("ascii")
        put["key"] = "s/damaged.tar"
        system.durability.wal.append(put)
        system.crash_stop()

        restored = RaiSystem.restore(str(path), num_workers=0)
        replay = restored.events.query(type="durability.replay")[-1]
        assert replay.fields["anomalies"] == 1
        assert "s/damaged.tar" not in restored.storage.bucket(
            "rai-uploads").objects
        assert restored.storage.get_object(
            "rai-uploads", "s/job.tar").data == data
