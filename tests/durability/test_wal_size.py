"""The WAL costs less than 1.5x the upload bytes it makes durable.

A small course-shaped run (four teams sharing the course scaffold, six
submissions each, alternating a kernel edit and a one-line config edit)
journals every mutation.  Dedup puts carry only their new chunks,
deflated, so the WAL appends at most 1.5 bytes per storage wire byte
per submission.  Journaling raw base64 chunks costs about 1.75x here.
It is a byte count, not a time.
"""

import pytest

from repro.core.job import JobStatus
from repro.core.system import RaiSystem

pytestmark = pytest.mark.durability

TEAMS = 4
ROUNDS = 6
WAL_PER_WIRE_BYTE = 1.5


def _scaffold() -> dict:
    files = {"CMakeLists.txt": "add_executable(ece408 main.cu)\n" * 40,
             "USAGE": "cmake /src && make && ./ece408 /data/test10.hdf5\n",
             "report.pdf": b"%PDF-1.4" + bytes(6144)}
    for i in range(4):
        files[f"support/common_{i}.h"] = "// ECE408 course scaffold\n" * 64
    return files


def _main_cu(team: str, rev: int, lines: int) -> str:
    return ("// @rai-sim quality=0.8 impl=analytic\n#define TILE_WIDTH 16\n"
            + f"// {team} rev {rev}\n" * lines)


def test_wal_bytes_per_submission_within_one_and_a_half_wire_bytes(tmp_path):
    system = RaiSystem.standard(num_workers=2, seed=3)
    system.attach_durability(str(tmp_path / "dur"))
    wal = system.durability.wal
    start = wal.size_bytes
    gap = system.config.rate_limit_seconds + 5.0
    results = []

    def team(i: int):
        name = f"team{i:02d}"
        lines = 150 + 50 * i
        client = system.new_client(team=name, username=f"{name}-lead")
        client.stage_project(dict(_scaffold(),
                                  **{"main.cu": _main_cu(name, 0, lines),
                                     "zz_tuning.cfg": f"# {name} 0\n"}))
        yield system.sim.timeout(3.0 * i)
        for rev in range(ROUNDS):
            if rev:
                client.stage_project(
                    {"main.cu": _main_cu(name, rev, lines)} if rev % 2
                    else {"zz_tuning.cfg": f"# {name} {rev}\n"})
                yield system.sim.timeout(gap)
            results.append((yield from client.submit()))

    system.run_all(team(i) for i in range(TEAMS))
    assert [r.status for r in results] == \
        [JobStatus.SUCCEEDED] * TEAMS * ROUNDS
    assert system.durability.checkpoints_taken == 1   # attach's only
    subs = len(results)
    wal_per_sub = (wal.size_bytes - start) / subs
    wire_per_sub = sum(r.upload_bytes for r in results) / subs
    assert wal_per_sub <= WAL_PER_WIRE_BYTE * wire_per_sub, \
        (wal_per_sub, wire_per_sub)
