"""Property: chunks held deflated behave as the raw bytes they encode.

A journaling deployment's object store takes a drawn sequence of dedup
puts, overwrites, deletes, lifecycle expiries and checkpoints over
payloads that are empty, random (incompressible), highly repetitive or
share a prefix.  After the sequence:

- each live object's ``get_object(...).data`` is its last put, byte for
  byte, and the lifecycle sweeps removed exactly the expired keys;
- ``unique_bytes`` equals an oracle's sum of the distinct raw chunk
  sizes of the live payloads, and the store holds exactly those chunks;
- ``rebuild_chunk_refcounts()`` audits clean: no orphaned chunk, the
  live logical bytes, and the refcounts kept live;
- a restore from the last checkpoint plus the WAL holds the same
  objects, etags, manifests and chunk bytes, with no replay anomaly.
"""

import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import RaiSystem
from repro.storage import LifecycleRule
from repro.storage.chunkstore import CHUNK_BYTES as C
from repro.storage.chunkstore import hash_chunk, split_chunks

pytestmark = pytest.mark.durability

BUCKET = "props"
KEYS = ("a", "b", "tmp/c", "tmp/d")
EXPIRING = "tmp/"
EXPIRE_AFTER = 10.0
PREFIX = random.Random(0).randbytes(2 * C)

payloads = st.one_of(
    st.just(b""),
    st.builds(lambda seed, n: random.Random(seed).randbytes(n),
              st.integers(0, 3), st.integers(1, 3 * C)),
    st.builds(lambda unit, n: unit * n,
              st.binary(min_size=1, max_size=4), st.integers(1, C)),
    st.builds(lambda cut, tail: PREFIX[:cut] + tail,
              st.integers(C, 2 * C), st.binary(max_size=64)),
)

operations = st.lists(st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS), payloads),
    st.tuples(st.just("delete"), st.sampled_from(KEYS)),
    st.tuples(st.just("tick"), st.floats(1.0, 8.0)),
    st.tuples(st.just("checkpoint")),
), max_size=14)


def _facts(storage) -> dict:
    return {key: (obj.etag, obj.manifest.to_doc(), obj.data)
            for key, obj in storage.bucket(BUCKET).objects.items()}


@settings(max_examples=60)
@given(ops=operations)
def test_deflated_chunks_round_trip_audit_and_restore(ops):
    with tempfile.TemporaryDirectory() as path:
        system = RaiSystem(seed=1)
        system.attach_durability(path)
        storage = system.storage
        storage.create_bucket(BUCKET).add_lifecycle_rule(
            LifecycleRule(prefix=EXPIRING, expire_after=EXPIRE_AFTER,
                          since="creation"))
        model = {}   # key -> (payload, put time)
        for op in ops:
            if op[0] == "put":
                _, key, payload = op
                storage.put_object(BUCKET, key, payload, dedup=True,
                                   metadata={"username": "s"})
                model[key] = (payload, system.sim.now)
            elif op[0] == "delete":
                storage.delete_object(BUCKET, op[1])
                model.pop(op[1], None)
            elif op[0] == "tick":
                system.run(until=system.sim.now + op[1])
                now = system.sim.now
                expired = {key for key, (_, t) in model.items()
                           if key.startswith(EXPIRING)
                           and now - t >= EXPIRE_AFTER}
                assert set(storage.run_lifecycle_sweep()) == \
                    {f"{BUCKET}/{key}" for key in expired}
                for key in expired:
                    del model[key]
            else:
                system.checkpoint()

        assert set(storage.bucket(BUCKET).objects) == set(model)
        for key, (payload, _) in model.items():
            assert storage.get_object(BUCKET, key).data == payload
        distinct = {hash_chunk(chunk): len(chunk)
                    for payload, _ in model.values()
                    for chunk in split_chunks(payload, C)}
        chunk_store = storage.chunk_store
        assert chunk_store.unique_bytes == sum(distinct.values())
        assert set(chunk_store._chunks) == set(distinct)
        refs = dict(chunk_store._refs)
        audit = storage.rebuild_chunk_refcounts()
        assert audit["orphaned_chunks"] == 0
        assert audit["logical_bytes"] == \
            sum(len(payload) for payload, _ in model.values())
        assert chunk_store._refs == refs
        assert chunk_store.unique_bytes == sum(distinct.values())

        live, stats = _facts(storage), chunk_store.stats()
        held = dict(chunk_store._chunks)
        system.crash_stop()
        restored = RaiSystem.restore(path, num_workers=0)
        assert restored.durability.replay_anomalies == 0
        assert _facts(restored.storage) == live
        assert restored.storage.chunk_store._chunks == held
        assert restored.storage.chunk_store.stats() == stats
