"""One control-plane topology: the one-partition plane, pinned by count.

Every deployment runs the shard plane; ``shards=1`` — the default — is
its one-partition case.  These tier-1 guards hold that case to the
reference storm's golden delivery-order digest and count what it does
per submission (one route to partition 0, no steals, one ``shard.route``
event), so a change to the one-partition path fails on a count, not on
a wall-clock ratio.  The same digest is the determinism oracle: a seed
fixes it, and the passive observers (tracing, event log, metering) do
not move it.  The same storm on four partitions is held to its own
digest, so a change to routing, stealing or the per-partition
schedulers fails here too.
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RaiSystem
from tests.golden import (GOLDEN_DIGEST, SHARDED_GOLDEN_DIGEST,
                          control_plane_digest)

pytestmark = [pytest.mark.perf, pytest.mark.shard]

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def test_shards_one_reproduces_the_golden_digest():
    digest, statuses, n = control_plane_digest(
        config=SystemConfig(shards=1))
    assert digest == GOLDEN_DIGEST
    assert statuses == ["succeeded"]
    assert n == 18


def test_four_partitions_reproduce_the_sharded_golden_digest():
    digest, statuses, n = control_plane_digest(
        config=SystemConfig(shards=4))
    assert digest == SHARDED_GOLDEN_DIGEST
    assert statuses == ["succeeded"]
    assert n == 18


def test_default_config_reproduces_the_golden_digest():
    # The default config builds the same one-partition plane as shards=1.
    digest, statuses, n = control_plane_digest()
    assert digest == GOLDEN_DIGEST
    assert statuses == ["succeeded"]
    assert n == 18


def test_same_seed_same_digest_and_another_seed_another():
    first, _, n = control_plane_digest(seed=408)
    again, _, _ = control_plane_digest(seed=408)
    other, _, _ = control_plane_digest(seed=409)
    assert n == 18
    assert first == again
    assert first != other


def test_observers_off_reproduce_the_golden_digest():
    # Spans, events and usage records never schedule a simulator event.
    digest, statuses, n = control_plane_digest(
        config=SystemConfig(observers_enabled=False))
    assert digest == GOLDEN_DIGEST
    assert statuses == ["succeeded"]
    assert n == 18


def test_one_partition_storm_routes_every_job_to_p0():
    system = RaiSystem.standard(num_workers=3, seed=11)
    gap = system.config.rate_limit_seconds + 5.0
    results = []

    def student(index):
        client = system.new_client(team=f"team{index:02d}")
        client.stage_project(FILES)
        yield system.sim.timeout(0.5 * index)
        for k in range(3):
            if k:
                yield system.sim.timeout(gap)
            results.append((yield from client.submit()))

    system.run_all([student(i) for i in range(6)])
    n = len(results)
    assert n == 18 and all(r.succeeded for r in results)
    plane = system.shards
    assert plane.router.routed == [n]
    assert plane.steals_in == plane.steals_out == [0]
    routed = system.events.query(type="shard.route")
    assert sorted(e.fields["job_id"] for e in routed) == \
        sorted(r.job_id for r in results)
    assert {(e.fields["partition"], e.fields["topic"]) for e in routed} == \
        {(0, "rai")}
