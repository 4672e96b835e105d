"""Microbenchmarks of the substrates (supporting material).

These are genuine wall-clock pytest-benchmark measurements of the
reimplemented infrastructure: broker publish/consume, document-database
query/update, object-store round trips, tar.bz2 archiving, the CNN's
serial-reference vs im2col implementations, and raw kernel event
throughput.  They back the claim that a full five-week course replays in
minutes.
"""

import numpy as np

from repro.broker import Consumer, MessageBroker
from repro.docdb import DocumentDB
from repro.gpu.cnn import (
    _conv2d_im2col,
    _conv2d_reference,
    generate_dataset,
    generate_model_weights,
    infer,
)
from repro.sim import Simulator
from repro.storage import ObjectStore
from repro.vfs import VirtualFileSystem, pack_tree, unpack_tree


class TestKernelThroughput:
    def test_event_throughput(self, benchmark):
        def run_events():
            sim = Simulator()

            def ticker(sim):
                for _ in range(2000):
                    yield sim.timeout(1.0)

            for _ in range(5):
                sim.process(ticker(sim))
            sim.run()
            return sim.now

        assert benchmark(run_events) == 2000.0


class TestBrokerThroughput:
    def test_publish_consume_1000(self, benchmark):
        def roundtrip():
            sim = Simulator()
            broker = MessageBroker(sim)
            consumer = Consumer(broker, "rai/tasks")
            n = 1000
            count = [0]

            def drain(sim):
                for _ in range(n):
                    msg = yield consumer.get()
                    consumer.ack(msg)
                    count[0] += 1

            proc = sim.process(drain(sim))
            for i in range(n):
                broker.publish("rai", {"n": i})
            sim.run(until=proc)
            return count[0]

        assert benchmark(roundtrip) == 1000


class TestDocDb:
    def setup_collection(self, n=2000):
        coll = DocumentDB()["submissions"]
        rng = np.random.default_rng(0)
        coll.insert_many([
            {"team": f"team-{i % 58}", "time": float(rng.random() * 100),
             "kind": "run" if i % 10 else "final"}
            for i in range(n)
        ])
        return coll

    def test_filtered_find(self, benchmark):
        coll = self.setup_collection()
        result = benchmark(
            lambda: coll.find({"kind": "final",
                               "time": {"$lt": 50}}).count())
        assert result > 0

    def test_indexed_equality_lookup(self, benchmark):
        coll = self.setup_collection()
        coll.create_index("team")
        result = benchmark(lambda: coll.find({"team": "team-7"}).count())
        assert result > 0

    def test_ranking_aggregation(self, benchmark):
        coll = self.setup_collection()
        pipeline = [
            {"$match": {"kind": "final"}},
            {"$group": {"_id": "$team", "best": {"$min": "$time"}}},
            {"$sort": {"best": 1}},
            {"$limit": 30},
        ]
        rows = benchmark(lambda: coll.aggregate(pipeline))
        assert len(rows) <= 30


class TestObjectStore:
    def test_put_get_1mb(self, benchmark):
        sim = Simulator()
        store = ObjectStore(sim)
        store.create_bucket("b")
        blob = bytes(1024 * 1024)

        def roundtrip():
            store.put_object("b", "k", blob)
            return store.get_object("b", "k").size

        assert benchmark(roundtrip) == len(blob)


class TestArchive:
    def test_pack_unpack_project(self, benchmark):
        fs = VirtualFileSystem()
        rng = np.random.default_rng(0)
        fs.import_mapping(
            {f"src/file{i}.cu": rng.bytes(4096) for i in range(20)}, "/")

        def roundtrip():
            blob = pack_tree(fs, "/")
            out = VirtualFileSystem()
            unpack_tree(blob, out, "/")
            return out.file_count()

        assert benchmark(roundtrip) == 20


class TestCnnImplementations:
    def test_serial_reference_conv(self, benchmark):
        """The 'CPU baseline' path: deliberately naive."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 28, 28)).astype(np.float32)
        w = rng.normal(size=(8, 1, 5, 5)).astype(np.float32)
        b = np.zeros(8, dtype=np.float32)
        out = benchmark(lambda: _conv2d_reference(x, w, b))
        assert out.shape == (2, 8, 24, 24)

    def test_vectorised_im2col_conv(self, benchmark):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 28, 28)).astype(np.float32)
        w = rng.normal(size=(8, 1, 5, 5)).astype(np.float32)
        b = np.zeros(8, dtype=np.float32)
        out = benchmark(lambda: _conv2d_im2col(x, w, b))
        assert out.shape == (2, 8, 24, 24)

    def test_full_network_inference_batch10(self, benchmark):
        images, labels = generate_dataset(10)
        weights = generate_model_weights()
        logits = benchmark(lambda: infer(images, weights, impl="im2col"))
        assert logits.shape == (10, 10)
