"""The shard map: stable, seeded hash partitioning of team keys.

Both planes route through the same map — a team's task messages go to
broker topic ``tasks.p{K}`` and its submission records to docdb collection
``{base}.p{K}`` for the same ``K`` (``rai`` and ``{base}`` when the map
has one partition) — so the single-shard fast path holds end to end:
claim a team's job, record its submission, and query its history without
ever crossing a partition boundary.

The hash must be *stable* (the same key maps to the same partition in
every process, every session, and after every restore — partition
placement is durable state) and *seeded* (a deployment can re-key the map
to break an adversarial or accidentally skewed key population without
code changes).  Python's builtin ``hash`` is neither (``PYTHONHASHSEED``),
so the map uses keyed blake2b.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple


class ShardMap:
    """Hash-partitions routing keys into ``n_partitions`` stable buckets."""

    __slots__ = ("n_partitions", "seed", "_hash_key")

    #: Partitioned task topics are ``tasks.p0 .. tasks.p{N-1}``, each with
    #: one competing-consumer channel ``tasks``.  A one-partition map names
    #: its partition as the paper does (§IV): topic ``rai``, route
    #: ``rai/tasks``, and the plain base collection name.
    TOPIC_PREFIX = "tasks"
    CHANNEL = "tasks"
    SINGLE_TOPIC = "rai"

    def __init__(self, n_partitions: int, seed: int = 0):
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.n_partitions = n_partitions
        self.seed = seed
        self._hash_key = seed.to_bytes(8, "big")

    # -- key → partition ----------------------------------------------------

    def partition(self, key) -> int:
        """The partition owning ``key`` (any value; hashed as text)."""
        if not isinstance(key, str):
            key = "" if key is None else str(key)
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8,
                                 key=self._hash_key).digest()
        return int.from_bytes(digest, "big") % self.n_partitions

    @staticmethod
    def key_of(doc: dict, fields: Tuple[str, ...] = ("team", "username")) -> str:
        """The routing key of a document/message body.

        First truthy of ``fields`` — the same precedence the fair-share
        scheduler uses for its per-team accounting, so queue placement
        and scheduling agree on who a job belongs to.
        """
        for field in fields:
            value = doc.get(field)
            if value:
                return value if isinstance(value, str) else str(value)
        return ""

    def partition_of(self, doc: dict) -> int:
        return self.partition(self.key_of(doc))

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

    def collection(self, base: str, partition: int) -> str:
        """Physical docdb collection name (``submissions.p3``; ``base``
        itself when there is one partition)."""
        self._check(partition)
        if self.n_partitions == 1:
            return base
        return f"{base}.p{partition}"

    def partitions(self) -> range:
        return range(self.n_partitions)

    def _check(self, partition: int) -> None:
        if not 0 <= partition < self.n_partitions:
            raise ValueError(f"partition {partition} out of range "
                             f"[0, {self.n_partitions})")

    # -- identity -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {"n_partitions": self.n_partitions, "seed": self.seed}

    def __eq__(self, other):
        return (isinstance(other, ShardMap)
                and self.n_partitions == other.n_partitions
                and self.seed == other.seed)

    def __hash__(self):
        return hash((self.n_partitions, self.seed))

    def __repr__(self):
        return f"ShardMap(n_partitions={self.n_partitions}, seed={self.seed})"


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

    def route_message(self, body: dict) -> Tuple[int, str]:
        return self.route(self.shard_map.key_of(body))
