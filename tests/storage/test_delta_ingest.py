"""Git-delta submission ingest: base negotiation + manifest file maps."""

import pytest

from repro.core.system import RaiSystem
from repro.storage.chunkstore import CHUNK_BYTES, Manifest, digest_file_map

pytestmark = pytest.mark.buildcache

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n" + "x\n" * 400,
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
    "zz_tuning.cfg": "#define BLOCK_DIM 8\n",
}


def _submit(system, client):
    return system.run(client.submit())


def _submit_after_gap(system, client):
    gap = system.config.rate_limit_seconds + 1.0

    def driver():
        yield system.sim.timeout(gap)
        result = yield from client.submit()
        return result

    return system.run(driver())


class TestManifestFileMap:
    def test_delta_doc_encodes_shared_chunks_by_index(self):
        blocks = [bytes([i]) * CHUNK_BYTES for i in range(10)]
        base = Manifest.from_bytes(b"".join(blocks))
        new = Manifest.from_bytes(b"".join(blocks[:9]) + b"z" * CHUNK_BYTES)
        doc = new.delta_doc(base)
        assert doc["base"] == base.digest
        # Nine shared chunks → back-reference integers; last one literal.
        kinds = [type(c) for c in doc["chunks"]]
        assert kinds[:9] == [int] * 9 and kinds[9] is not int
        assert new.delta_wire_size(base) < new.delta_wire_size(None)

    def test_tree_digest_stable_under_file_order(self):
        a = digest_file_map({"/a": "1", "/b": "2"})
        b = digest_file_map({"/b": "2", "/a": "1"})
        assert a == b
        assert a != digest_file_map({"/a": "1", "/b": "3"})

    def test_manifest_doc_round_trips_file_map(self):
        m = Manifest.from_bytes(b"payload", files={"/main.cu": "d" * 64})
        again = Manifest.from_doc(m.to_doc())
        assert again.files == m.files
        assert again.tree_digest() == m.tree_digest()


class TestBaseNegotiation:
    def test_fresh_client_instance_still_ships_delta(self):
        """A brand-new client object (no _last_manifest) negotiates the
        server-side base registered by the user's previous upload and
        uploads a delta, not the full archive."""
        system = RaiSystem.standard(num_workers=1, seed=31)
        first = system.new_client(username="alice")
        first.stage_project(FILES)
        r1 = _submit(system, first)
        # First upload carries every chunk plus manifest overhead.
        assert r1.upload_bytes >= r1.upload_bytes_full * 0.8

        fresh = system.new_client(username="alice")
        fresh.stage_project(dict(FILES,
                                 **{"zz_tuning.cfg": "#define BLOCK_DIM 9\n"}))
        assert fresh._last_manifest is None
        r2 = _submit_after_gap(system, fresh)
        assert r2.upload_bytes < r2.upload_bytes_full / 2

    def test_negotiate_base_returns_latest_upload(self):
        system = RaiSystem.standard(num_workers=1, seed=32)
        client = system.new_client(username="bob")
        client.stage_project(FILES)
        _submit(system, client)
        base = system.storage.negotiate_base(
            system.config.upload_bucket, "bob")
        assert base is not None
        assert base.files  # per-file digests rode along with the upload
        assert system.storage.negotiate_base(
            system.config.upload_bucket, "nobody") is None

    def test_rebuild_upload_bases_recomputes_registry(self):
        system = RaiSystem.standard(num_workers=1, seed=33)
        client = system.new_client(username="carol")
        client.stage_project(FILES)
        _submit(system, client)
        bucket = system.config.upload_bucket
        before = system.storage.negotiate_base(bucket, "carol")
        system.storage._upload_bases.clear()
        assert system.storage.negotiate_base(bucket, "carol") is None
        rebuilt = system.storage.rebuild_upload_bases()
        assert rebuilt >= 1
        after = system.storage.negotiate_base(bucket, "carol")
        assert after is not None and after.digest == before.digest
