"""A corrupt project archive rejects one job; it never stops the worker."""

import bz2

import pytest

import repro.core.client as client_module
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.vfs import pack_tree

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n" + "// pad\n" * 200,
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def cut_mid_member(fs, top, compression):
    """A tar cut inside its first member's data (inside a valid bz2 stream
    when compressed)."""
    raw = pack_tree(fs, top, compression="none")[:520]
    return bz2.compress(raw) if compression == "bz2" else raw


def flip_header_byte(fs, top, compression):
    damaged = bytearray(pack_tree(fs, top, compression=compression))
    damaged[20] ^= 0xFF
    return bytes(damaged)


@pytest.mark.parametrize("compression", ["none", "bz2"],
                         ids=["plain-tar", "tar-bz2"])
@pytest.mark.parametrize("damage", [cut_mid_member, flip_header_byte])
def test_corrupt_upload_is_rejected_and_worker_lives(monkeypatch, compression,
                                                     damage):
    """The client chunks whatever bytes it packed; the worker's archive
    auto-detect must reject a damaged bz2 stream as surely as a damaged
    plain tar."""
    system = RaiSystem.standard(num_workers=1, seed=5)
    bad = system.new_client(team="bad")
    bad.stage_project(FILES)
    with monkeypatch.context() as patch:
        patch.setattr(client_module, "pack_tree",
                      lambda fs, top, **_: damage(fs, top, compression))
        result = system.run(bad.submit())
    assert result.status is JobStatus.REJECTED
    assert "cannot unpack project: invalid archive" in result.stderr_text()

    good = system.new_client(team="good")
    good.stage_project(FILES)
    assert system.run(good.submit()).status is JobStatus.SUCCEEDED
    worker = system.workers[0]
    assert worker.is_running and worker.active_jobs == 0
    assert system.broker.dead_letter_count() == 0
