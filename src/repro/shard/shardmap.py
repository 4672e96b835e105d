"""The shard map: stable, keyed hash partitioning of team keys.

A team's task messages go to broker topic ``tasks.p{K}`` (``rai`` when
the map has one partition), and the partition's scheduler and its
stealing consumers serve them there.

The hash must be *stable*: the same key maps to the same partition in
every process, every session, and after every restore — partition
placement is durable state.  Python's builtin ``hash`` is not
(``PYTHONHASHSEED``), so the map uses blake2b under a fixed key.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

#: The blake2b key every map hashes under.
_HASH_KEY = bytes(8)


class ShardMap:
    """Hash-partitions routing keys into ``n_partitions`` stable buckets."""

    __slots__ = ("n_partitions",)

    #: Partitioned task topics are ``tasks.p0 .. tasks.p{N-1}``, each with
    #: one competing-consumer channel ``tasks``.  A one-partition map names
    #: its partition as the paper does (§IV): topic ``rai``, route
    #: ``rai/tasks``.
    TOPIC_PREFIX = "tasks"
    CHANNEL = "tasks"
    SINGLE_TOPIC = "rai"

    def __init__(self, n_partitions: int):
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.n_partitions = n_partitions

    # -- key → partition ----------------------------------------------------

    def partition(self, key) -> int:
        """The partition owning ``key`` (any value; hashed as text)."""
        if not isinstance(key, str):
            key = "" if key is None else str(key)
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8,
                                 key=_HASH_KEY).digest()
        return int.from_bytes(digest, "big") % self.n_partitions

    # -- partition → names --------------------------------------------------

    def topic(self, partition: int) -> str:
        """Broker topic name for ``partition`` (``tasks.p3``; ``rai`` when
        there is one partition)."""
        self._check(partition)
        if self.n_partitions == 1:
            return self.SINGLE_TOPIC
        return f"{self.TOPIC_PREFIX}.p{partition}"

    def route(self, partition: int) -> str:
        """Full broker route for ``partition`` (``tasks.p3/tasks``)."""
        return f"{self.topic(partition)}/{self.CHANNEL}"

    def partitions(self) -> range:
        return range(self.n_partitions)

    def _check(self, partition: int) -> None:
        if not 0 <= partition < self.n_partitions:
            raise ValueError(f"partition {partition} out of range "
                             f"[0, {self.n_partitions})")

    # -- identity -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {"n_partitions": self.n_partitions}

    def __eq__(self, other):
        return (isinstance(other, ShardMap)
                and self.n_partitions == other.n_partitions)

    def __hash__(self):
        return hash(self.n_partitions)

    def __repr__(self):
        return f"ShardMap(n_partitions={self.n_partitions})"


class Router:
    """Publish-time routing: fair-share key → (partition, topic).

    A thin counting wrapper over :class:`ShardMap` — the message plane
    routes through it so per-partition routed totals are observable
    (``rai shards``, the skew gauges) without touching the map itself.
    """

    __slots__ = ("shard_map", "routed")

    def __init__(self, shard_map: ShardMap):
        self.shard_map = shard_map
        #: Messages routed per partition since boot.
        self.routed: List[int] = [0] * shard_map.n_partitions

    def route(self, key) -> Tuple[int, str]:
        """Route ``key``; returns ``(partition, topic_name)``."""
        partition = self.shard_map.partition(key)
        self.routed[partition] += 1
        return partition, self.shard_map.topic(partition)
