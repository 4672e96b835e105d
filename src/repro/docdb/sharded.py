"""Hash-sharded collections behind a planner-aware routing layer.

A :class:`ShardedCollection` is a facade over N physical
:class:`~repro.docdb.database.Collection` shards (``{base}.p0`` ..
``{base}.p{N-1}``), registered on the database so every existing call
site — the worker's dedup probe, the scheduler's history seed, dead-letter
drains, durability fencing — keeps calling ``db.collection("submissions")``
and transparently gets routed storage.  The physical shards are ordinary
collections living in ``db._collections``, so journaling (each WAL record
carries its ``{base}.p{K}`` name, i.e. its partition id) and snapshots
work unchanged.

Routing invariants:

- A document lives on ``partition(key_of(doc))`` where ``key_of`` is the
  first truthy of the key fields (``team`` then ``username`` — the same
  precedence the broker router and fair-share scheduler use).
- A query takes the **single-shard fast path** only when every matching
  document's routing key is pinned by the filter: each key field is
  constrained by a plain equality, walking the same first-truthy
  precedence.  ``{"team": T}`` routes; ``{"username": U}`` alone does
  not (a team-routed document can still match it) and scatters.
- Everything else **scatter/gathers**: the filter runs on every shard
  (each shard's own planner picks index vs scan) and the facade merges.
  Sort/limit push down — each shard pre-sorts and truncates to
  ``limit`` before the merge, so a top-K over a semester of
  submissions materializes K documents per shard, not the table.

Mongo-style caveats (documented, deliberate): ``_id`` uniqueness and
``unique=True`` indexes are per-shard guarantees unless the constrained
field is the shard key, and scatter results interleave shards in
partition order rather than global insertion order (sorted queries are
order-identical to an unsharded collection up to cross-shard ties).
"""

from __future__ import annotations

import copy
from typing import Any, List, Optional

from repro.docdb.aggregate import run_pipeline
from repro.docdb.cursor import Cursor, _SortKey
from repro.docdb.query import get_path
from repro.errors import DocDbError

#: Routing-key precedence: a document routes by its first truthy field.
KEY_FIELDS = ("team", "username")


class ShardedCursor(Cursor):
    """A merged cursor over per-shard result chunks.

    Inherits the full sort/limit/projection surface; materialization
    first collapses the chunks — with per-shard sort + ``limit``
    truncation pushed down when a sorted, limited read asks for it — and
    then runs the ordinary cursor pipeline over the merged list, so the
    final ordering uses exactly the unsharded comparator.
    """

    def __init__(self, chunks: List[List[dict]],
                 projection: Optional[dict], plan: dict):
        super().__init__([], projection=projection, plan=plan)
        self._chunks = chunks

    def _materialize(self) -> List[dict]:
        if self._sort:
            # Push the sort (and any limit) down to each shard: a
            # document outside its own shard's first ``limit`` can never
            # make the merged first ``limit``.
            cap = self._limit
            merged: List[dict] = []
            for chunk in self._chunks:
                docs = list(chunk)
                for field, direction in reversed(self._sort):
                    docs.sort(key=lambda d: _SortKey(get_path(d, field)),
                              reverse=(direction == -1))
                merged.extend(docs if cap is None else docs[:cap])
            self._docs = merged
        else:
            self._docs = [doc for chunk in self._chunks for doc in chunk]
        return super()._materialize()


class ShardedCollection:
    """Routing facade over N physical collection shards."""

    def __init__(self, db, name: str, shard_map):
        self.db = db
        self.name = name
        self.shard_map = shard_map
        self.shards = [db.collection(shard_map.collection(name, p))
                       for p in shard_map.partitions()]
        self.last_plan: Optional[dict] = None

    # -- routing ------------------------------------------------------------

    def shard_key(self, doc: dict):
        for field in KEY_FIELDS:
            value = doc.get(field)
            if value:
                return value
        return ""

    def partition_of(self, doc: dict) -> int:
        return self.shard_map.partition(self.shard_key(doc))

    def shard_for(self, doc: dict):
        """The physical shard that owns ``doc``."""
        return self.shards[self.partition_of(doc)]

    def _filter_partition(self, filter: dict) -> Optional[int]:
        """The single partition a filter pins, or None (scatter).

        Sound only when the routing key of *every* possible match is
        determined: walking key-field precedence, each field must appear
        as a plain equality; a truthy value decides the key, a pinned
        falsy value defers to the next field (exactly how documents
        route), and an absent or operator-valued field leaves the key
        open — scatter.
        """
        if not filter:
            return None
        for field in KEY_FIELDS:
            if field not in filter:
                return None
            value = filter[field]
            if isinstance(value, (dict, list, tuple)):
                return None
            if value:
                return self.shard_map.partition(value)
        return self.shard_map.partition("")

    # -- indexes ------------------------------------------------------------

    def create_index(self, field: str) -> list:
        """Create the index on every shard (returns the per-shard indexes)."""
        return [shard.create_index(field) for shard in self.shards]

    # -- writes ------------------------------------------------------------

    def insert_one(self, document: dict) -> Any:
        if not isinstance(document, dict):
            raise DocDbError("documents must be dicts")
        return self.shard_for(document).insert_one(document)

    # -- reads ------------------------------------------------------------

    def find(self, filter: Optional[dict] = None,
             projection: Optional[dict] = None) -> Cursor:
        filter = filter or {}
        partition = self._filter_partition(filter)
        if partition is not None:
            cursor = self.shards[partition].find(filter, projection)
            cursor._plan = dict(cursor._plan or {}, sharded=True,
                                shard=partition)
            self.last_plan = dict(cursor._plan)
            return cursor
        chunks, shard_plans = [], []
        examined = total = matched = 0
        for shard in self.shards:
            cursor = shard.find(filter)
            chunks.append(cursor._docs)
            plan = cursor.explain()
            shard_plans.append(plan)
            examined += plan.get("docs_examined", 0)
            total += plan.get("docs_total", 0)
            matched += plan.get("docs_matched", 0)
        plan = {"collection": self.name, "path": "scatter", "sharded": True,
                "index": None, "index_kind": None, "shards": shard_plans,
                "docs_examined": examined, "docs_total": total,
                "docs_matched": matched}
        self.last_plan = dict(plan)
        return ShardedCursor(chunks, projection, plan)

    def find_one(self, filter: Optional[dict] = None) -> Optional[dict]:
        return self.find(filter).first()

    def aggregate(self, pipeline: List[dict]) -> List[dict]:
        docs = [copy.deepcopy(doc) for shard in self.shards
                for doc in shard._docs.values()]
        return run_pipeline(docs, pipeline)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __repr__(self):
        return (f"ShardedCollection({self.name!r}, "
                f"n_partitions={self.shard_map.n_partitions})")
