"""Collections and the database front object."""

from __future__ import annotations

import copy
import re
from collections.abc import MutableMapping
from typing import Any, Dict, List, Optional

from repro.docdb.aggregate import run_pipeline
from repro.docdb.cursor import Cursor
from repro.docdb.index import Index, RANGE_OPS, SortedIndex
from repro.docdb.query import match_document, get_path, _MISSING
from repro.docdb.update import apply_update
from repro.errors import DocDbError, DuplicateKeyError
from repro.obs.metrics import MetricsRegistry


class PlannerStats(MutableMapping):
    """Dict-shaped view of one collection's planner counters.

    The numbers live in the shared metrics registry as ``planner_<stat>``
    gauges labelled by collection, so the operator surface (snapshots,
    the telemetry report) sees them alongside everything else; existing
    code keeps reading and writing ``coll.planner_stats`` like the plain
    dict it used to be (including resetting entries to zero — hence
    gauges, not counters).
    """

    KEYS = ("index_hits", "range_hits", "scans", "docs_examined")

    def __init__(self, metrics: MetricsRegistry, collection: str):
        self._metrics = metrics
        self._collection = collection
        for key in self.KEYS:
            self._gauge(key)

    def _gauge(self, key: str):
        if key not in self.KEYS:
            raise KeyError(key)
        return self._metrics.gauge(f"planner_{key}",
                                   collection=self._collection)

    def __getitem__(self, key: str) -> int:
        return int(self._gauge(key).value)

    def __setitem__(self, key: str, value) -> None:
        self._gauge(key).set(value)

    def __delitem__(self, key: str) -> None:
        raise TypeError("planner stats keys are fixed")

    def __iter__(self):
        return iter(self.KEYS)

    def __len__(self) -> int:
        return len(self.KEYS)

    def __repr__(self):
        return f"PlannerStats({dict(self)!r})"


_OID_RE = re.compile(r"^oid-(\d+)$")


class Collection:
    """A named set of documents."""

    def __init__(self, db: "DocumentDB", name: str):
        self.db = db
        self.name = name
        self._docs: Dict[Any, dict] = {}
        self._indexes: Dict[str, Index] = {}
        #: Next auto-generated ``oid-``; a plain int (not itertools.count)
        #: so snapshots can capture it and recovery can advance it.
        self._next_oid = 1
        #: Access-path plan of the most recent find/update/delete/count —
        #: the write-path equivalent of ``Cursor.explain()``.
        self.last_plan: Optional[dict] = None
        #: Cumulative planner activity (index hits vs scans, docs
        #: examined) — a dict-shaped view over registry gauges.
        self.planner_stats = PlannerStats(db.metrics, name)

    # -- indexes ------------------------------------------------------------

    def create_index(self, field: str, unique: bool = False,
                     ordered: bool = False) -> Index:
        """Create (or fetch) an index on ``field``.

        ``ordered=True`` builds a :class:`SortedIndex`, which also serves
        ``$gt/$gte/$lt/$lte`` range predicates; an existing hash index on
        the same field is upgraded in place.
        """
        existing = self._indexes.get(field)
        if existing is not None and (not ordered or existing.supports_range):
            return existing
        index = SortedIndex(field, unique=unique) if ordered \
            else Index(field, unique=unique)
        for doc_id, doc in self._docs.items():
            index.add(doc_id, doc)
        self._indexes[field] = index
        journal = self.db.journal
        if journal is not None:
            journal.docdb_index(self.name, field, unique,
                                index.supports_range)
        return index

    def _index_add(self, doc_id, doc) -> None:
        for index in self._indexes.values():
            index.check_would_conflict(doc_id, doc)
        for index in self._indexes.values():
            index.add(doc_id, doc)

    def _index_remove(self, doc_id, doc) -> None:
        for index in self._indexes.values():
            index.remove(doc_id, doc)

    # -- writes ------------------------------------------------------------

    def insert_one(self, document: dict) -> Any:
        """Insert a document; returns its ``_id`` (generated if absent)."""
        if not isinstance(document, dict):
            raise DocDbError("documents must be dicts")
        doc = copy.deepcopy(document)
        doc_id = doc.get("_id")
        if doc_id is None:
            doc_id = f"oid-{self._next_oid:08d}"
            self._next_oid += 1
            doc["_id"] = doc_id
        else:
            self._note_oid(doc_id)
        if doc_id in self._docs:
            raise DuplicateKeyError(f"_id {doc_id!r} already exists")
        self._index_add(doc_id, doc)
        self._docs[doc_id] = doc
        journal = self.db.journal
        if journal is not None:
            journal.docdb_insert(self.name, doc)
        usage = self.db.usage
        if usage is not None:
            tenant = doc.get("team") or doc.get("username")
            usage.record("docdb_ops", 1.0,
                         tenant=tenant if isinstance(tenant, str) else None)
        return doc_id

    def _note_oid(self, doc_id) -> None:
        """Keep the oid counter ahead of any explicitly supplied oid."""
        match = _OID_RE.match(doc_id) if isinstance(doc_id, str) else None
        if match:
            self._next_oid = max(self._next_oid, int(match.group(1)) + 1)

    def insert_many(self, documents) -> List[Any]:
        return [self.insert_one(d) for d in documents]

    def replace_one(self, filter: dict, replacement: dict,
                    upsert: bool = False) -> int:
        return self._update(filter, replacement, upsert=upsert, many=False)

    def update_one(self, filter: dict, update: dict,
                   upsert: bool = False) -> int:
        """Apply ``update`` to the first match; returns modified count."""
        return self._update(filter, update, upsert=upsert, many=False)

    def update_many(self, filter: dict, update: dict) -> int:
        return self._update(filter, update, upsert=False, many=True)

    def _update(self, filter: dict, update: dict, upsert: bool,
                many: bool) -> int:
        candidate_ids, _ = self._candidates(filter)
        matched_ids = [doc_id for doc_id in candidate_ids
                       if match_document(self._docs[doc_id], filter)]
        if not matched_ids:
            if upsert:
                seed = {k: v for k, v in filter.items()
                        if not k.startswith("$") and not isinstance(v, dict)}
                new_doc = apply_update(seed, update)
                for op_spec in ([update.get("$setOnInsert")] if
                                isinstance(update.get("$setOnInsert"), dict)
                                else []):
                    for path, value in op_spec.items():
                        new_doc.setdefault(path, copy.deepcopy(value))
                self.insert_one(new_doc)
                return 1
            return 0
        if not many:
            matched_ids = matched_ids[:1]
        modified = 0
        journal = self.db.journal
        for doc_id in matched_ids:
            old = self._docs[doc_id]
            new = apply_update(old, update)
            new["_id"] = doc_id
            if new != old:
                self._index_remove(doc_id, old)
                try:
                    self._index_add(doc_id, new)
                except DuplicateKeyError:
                    self._index_add(doc_id, old)  # restore
                    raise
                self._docs[doc_id] = new
                if journal is not None:
                    journal.docdb_update(self.name, new)
                modified += 1
        return modified

    def delete_one(self, filter: dict) -> int:
        return self._delete(filter, many=False)

    def delete_many(self, filter: dict) -> int:
        return self._delete(filter, many=True)

    def _delete(self, filter: dict, many: bool) -> int:
        candidate_ids, _ = self._candidates(filter)
        doomed = [doc_id for doc_id in candidate_ids
                  if match_document(self._docs[doc_id], filter)]
        if not many:
            doomed = doomed[:1]
        journal = self.db.journal
        for doc_id in doomed:
            self._index_remove(doc_id, self._docs[doc_id])
            del self._docs[doc_id]
            if journal is not None:
                journal.docdb_delete(self.name, doc_id)
        return len(doomed)

    # -- reads ------------------------------------------------------------

    def _candidates(self, filter: dict):
        """Plan the access path for ``filter``.

        Returns ``(candidate_ids, plan)``.  The planner tries, in order:
        an equality fast path on an indexed top-level field, a range
        (``$gt/$gte/$lt/$lte``) fast path on a sorted-indexed field, then
        the full collection scan.  Candidates preserve insertion order on
        the equality and scan paths; range candidates come back in key
        order.  All four CRUD verbs route through here, so the fast paths
        cover updates and deletes, not just ``find``.
        """
        ids, plan = self._plan(filter)
        plan["docs_examined"] = len(ids)
        plan["docs_total"] = len(self._docs)
        if plan["path"] == "scan":
            self.planner_stats["scans"] += 1
        elif plan["index_kind"] == "range":
            self.planner_stats["range_hits"] += 1
        else:
            self.planner_stats["index_hits"] += 1
        self.planner_stats["docs_examined"] += len(ids)
        self.last_plan = plan
        usage = self.db.usage
        if usage is not None:
            # Every CRUD verb plans here, so one hook meters them all.
            # Filter values may be operator dicts ({"$gt": ...}) — only
            # a plain string names a tenant.
            tenant = filter.get("team") or filter.get("username")
            usage.record("docdb_ops", 1.0,
                         tenant=tenant if isinstance(tenant, str) else None)
        return ids, plan

    def _plan(self, filter: dict):
        range_choice = None
        for field, condition in filter.items():
            if field.startswith("$"):
                continue
            index = self._indexes.get(field)
            if index is None:
                continue
            if not isinstance(condition, (list, dict)):
                ids = [i for i in index.lookup(condition) if i in self._docs]
                return ids, {"collection": self.name, "path": "index",
                             "index": field, "index_kind": "equality"}
            if range_choice is None and index.supports_range \
                    and isinstance(condition, dict):
                ops = {op: operand for op, operand in condition.items()
                       if op in RANGE_OPS}
                if ops:
                    range_choice = (field, index, ops)
        if range_choice is not None:
            field, index, ops = range_choice
            ids = index.range_ids(ops)
            if ids is not None:
                ids = [i for i in ids if i in self._docs]
                return ids, {"collection": self.name, "path": "index",
                             "index": field, "index_kind": "range"}
        return list(self._docs), {"collection": self.name, "path": "scan",
                                  "index": None, "index_kind": None}

    def explain(self, filter: Optional[dict] = None) -> dict:
        """Plan a filter without executing it (planner introspection)."""
        _, plan = self._candidates(filter or {})
        return plan

    def find(self, filter: Optional[dict] = None,
             projection: Optional[dict] = None) -> Cursor:
        filter = filter or {}
        candidate_ids, plan = self._candidates(filter)
        matched = [self._docs[i] for i in candidate_ids
                   if match_document(self._docs[i], filter)]
        plan = dict(plan, docs_matched=len(matched))
        return Cursor(matched, projection=projection, plan=plan)

    def find_one(self, filter: Optional[dict] = None,
                 projection: Optional[dict] = None) -> Optional[dict]:
        return self.find(filter, projection).first()

    def count_documents(self, filter: Optional[dict] = None) -> int:
        filter = filter or {}
        if not filter:
            return len(self._docs)
        candidate_ids, _ = self._candidates(filter)
        return sum(1 for i in candidate_ids
                   if match_document(self._docs[i], filter))

    def distinct(self, field: str, filter: Optional[dict] = None) -> List[Any]:
        seen = []
        for doc in self.find(filter or {}):
            value = get_path(doc, field)
            if value is _MISSING:
                continue
            values = value if isinstance(value, list) else [value]
            for v in values:
                if v not in seen:
                    seen.append(v)
        return seen

    def aggregate(self, pipeline: List[dict]) -> List[dict]:
        docs = [copy.deepcopy(d) for d in self._docs.values()]
        return run_pipeline(docs, pipeline)

    def __len__(self) -> int:
        return len(self._docs)

    def estimated_size_bytes(self) -> int:
        """Rough storage footprint (JSON encoding length)."""
        import json
        return sum(len(json.dumps(d, default=str)) for d in self._docs.values())


class DocumentDB:
    """The database: a namespace of collections (paper's MongoDB role)."""

    def __init__(self, sim=None, name: str = "rai",
                 metrics: Optional[MetricsRegistry] = None):
        self.sim = sim
        self.name = name
        #: Registry backing the planner gauges (private when standalone,
        #: the deployment-wide one when created by :class:`RaiSystem`).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._collections: Dict[str, Collection] = {}
        #: Routing facades by base name: ``collection("submissions")``
        #: returns the facade when that base is sharded, while the
        #: physical ``submissions.pK`` shards stay ordinary collections
        #: in ``_collections`` (journaling and snapshots see partitions,
        #: never the facade).
        self._sharded: Dict[str, Any] = {}
        #: Optional :class:`~repro.durability.DurabilityManager` journal.
        #: When set, every write (insert/update/delete/index/drop) is
        #: appended to the write-ahead log after it is applied.
        self.journal = None
        #: Optional :class:`~repro.obs.usage.UsageMeter`; wired by
        #: RaiSystem so document traffic bills the owning tenant.
        self.usage = None

    def collection(self, name: str):
        sharded = self._sharded.get(name)
        if sharded is not None:
            return sharded
        coll = self._collections.get(name)
        if coll is None:
            coll = self._collections[name] = Collection(self, name)
        return coll

    def shard_collection(self, name: str, shard_map,
                         key_fields=("team", "username")):
        """Register ``name`` as a sharded base routed by ``shard_map``.

        Must happen before any document lands under the plain name — a
        facade cannot adopt an already-populated unsharded collection
        (that is a data migration, not a registration).  A one-partition
        map needs no routing: its only shard *is* the plain collection,
        which is returned as is.
        """
        from repro.docdb.sharded import ShardedCollection

        if shard_map.n_partitions == 1:
            return self.collection(name)
        existing = self._collections.get(name)
        if existing is not None and len(existing) > 0:
            raise DocDbError(
                f"cannot shard non-empty collection {name!r}")
        self._collections.pop(name, None)
        sharded = ShardedCollection(self, name, shard_map,
                                    key_fields=key_fields)
        self._sharded[name] = sharded
        return sharded

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def collection_names(self) -> List[str]:
        return sorted(self._collections)

    def drop_collection(self, name: str) -> None:
        sharded = self._sharded.pop(name, None)
        if sharded is not None:
            for shard in sharded.shards:
                self.drop_collection(shard.name)
            return
        if self._collections.pop(name, None) is not None \
                and self.journal is not None:
            self.journal.docdb_drop(name)

    def total_documents(self) -> int:
        return sum(len(c) for c in self._collections.values())

    def estimated_size_bytes(self) -> int:
        return sum(c.estimated_size_bytes()
                   for c in self._collections.values())

    def planner_stats(self) -> dict:
        """Aggregated access-path counters across every collection."""
        totals = {"index_hits": 0, "range_hits": 0, "scans": 0,
                  "docs_examined": 0}
        for coll in self._collections.values():
            for key, value in coll.planner_stats.items():
                totals[key] += value
        return totals

    def stats(self) -> dict:
        return {
            "collections": {n: len(c) for n, c in self._collections.items()},
            "total_documents": self.total_documents(),
            "estimated_bytes": self.estimated_size_bytes(),
            "planner": self.planner_stats(),
        }
