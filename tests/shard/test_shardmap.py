"""ShardMap/Router: stable hashing, naming, key precedence."""

import pytest

from repro.shard import Router, ShardMap

pytestmark = pytest.mark.shard


class TestShardMap:
    def test_partition_stable_across_instances(self):
        # Placement is durable state: two maps (two processes, or one
        # process before and after a restore) must agree on every key.
        a, b = ShardMap(8), ShardMap(8)
        keys = [f"team{i:03d}" for i in range(300)]
        assert [a.partition(k) for k in keys] == \
               [b.partition(k) for k in keys]

    def test_partition_range_and_rough_balance(self):
        smap = ShardMap(8)
        counts = [0] * 8
        for i in range(4096):
            p = smap.partition(f"course-team-{i}")
            assert 0 <= p < 8
            counts[p] += 1
        # Keyed blake2b over distinct keys: every bucket populated,
        # no bucket dramatically over- or under-full.
        assert min(counts) > 4096 / 8 * 0.6
        assert max(counts) < 4096 / 8 * 1.5

    def test_non_string_keys_hash_as_text(self):
        smap = ShardMap(4)
        assert smap.partition(408) == smap.partition("408")
        assert smap.partition(None) == smap.partition("")

    def test_naming(self):
        smap = ShardMap(4)
        assert smap.topic(2) == "tasks.p2"
        assert smap.route(2) == "tasks.p2/tasks"
        assert list(smap.partitions()) == [0, 1, 2, 3]
        with pytest.raises(ValueError):
            smap.topic(4)

    def test_identity(self):
        assert ShardMap(4) == ShardMap(4)
        assert ShardMap(4) != ShardMap(8)
        assert ShardMap(4).to_dict() == {"n_partitions": 4}

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap(0)


class TestRouter:
    def test_route_counts_per_partition(self):
        smap = ShardMap(4)
        router = Router(smap)
        keys = [f"team{i}" for i in range(40)]
        for key in keys:
            partition, topic = router.route(key)
            assert partition == smap.partition(key)
            assert topic == smap.topic(partition)
        assert sum(router.routed) == 40
