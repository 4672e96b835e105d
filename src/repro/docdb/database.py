"""Collections and the database front object."""

from __future__ import annotations

import copy
import re
from typing import Any, Dict, List, Optional

from repro.docdb.aggregate import run_pipeline
from repro.docdb.cursor import Cursor
from repro.docdb.index import Index
from repro.docdb.query import match_document
from repro.docdb.update import apply_update
from repro.errors import DocDbError, DuplicateKeyError


#: A collection's planner counts.  ``range_hits`` stays 0 (there is no
#: range index); the benchmark reads it (bench/harness.py:306).
PLANNER_KEYS = ("index_hits", "range_hits", "scans", "docs_examined")


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
        #: Cumulative planner activity: index hits vs scans, docs examined.
        self.planner_stats = dict.fromkeys(PLANNER_KEYS, 0)

    # -- indexes ------------------------------------------------------------

    def create_index(self, field: str, unique: bool = False) -> Index:
        """Create (or fetch) an equality index on ``field``."""
        existing = self._indexes.get(field)
        if existing is not None:
            return existing
        index = Index(field, unique=unique)
        for doc_id, doc in self._docs.items():
            index.add(doc_id, doc)
        self._indexes[field] = index
        journal = self.db.journal
        if journal is not None:
            journal.docdb_index(self.name, field, unique)
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
            doc_id = doc["_id"] = f"oid-{self._next_oid:08d}"
            self._next_oid += 1
        self.add_document(doc)
        journal = self.db.journal
        if journal is not None:
            journal.docdb_insert(self.name, doc)
        usage = self.db.usage
        if usage is not None:
            tenant = doc.get("team") or doc.get("username")
            usage.record("docdb_ops", 1.0,
                         tenant=tenant if isinstance(tenant, str) else None)
        return doc_id

    def add_document(self, doc: dict) -> None:
        """The state change of an insert (live and replay): index upkeep,
        store, and the oid counter kept ahead of ``doc``'s ``_id``."""
        doc_id = doc["_id"]
        if doc_id in self._docs:
            raise DuplicateKeyError(f"_id {doc_id!r} already exists")
        self._index_add(doc_id, doc)
        self._docs[doc_id] = doc
        match = _OID_RE.match(doc_id) if isinstance(doc_id, str) else None
        if match:
            self._next_oid = max(self._next_oid, int(match.group(1)) + 1)

    def insert_many(self, documents) -> List[Any]:
        return [self.insert_one(d) for d in documents]

    def update_one(self, filter: dict, update: dict,
                   upsert: bool = False) -> int:
        """Apply ``update`` to the first match; returns modified count."""
        matched_ids = [doc_id for doc_id in self._candidates(filter)
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
        doc_id = matched_ids[0]
        old = self._docs[doc_id]
        new = apply_update(old, update)
        new["_id"] = doc_id
        if new == old:
            return 0
        self.replace_document(new)
        if self.db.journal is not None:
            self.db.journal.docdb_update(self.name, new)
        return 1

    def replace_document(self, doc: dict) -> None:
        """The state change of an update (live and replay): ``doc`` is the
        post-image; the indexes move with it, or not at all."""
        doc_id = doc["_id"]
        old = self._docs.get(doc_id)
        if old is not None:
            self._index_remove(doc_id, old)
        try:
            self._index_add(doc_id, doc)
        except DuplicateKeyError:
            if old is not None:
                self._index_add(doc_id, old)  # restore
            raise
        self._docs[doc_id] = doc

    # -- reads ------------------------------------------------------------

    def _candidates(self, filter: dict) -> List[Any]:
        """The candidate ids for ``filter``, in insertion order.

        The planner tries an equality fast path on an indexed top-level
        field, then the full collection scan.  ``find`` and
        ``update_one`` both plan here.
        """
        stats = self.planner_stats
        for field, condition in filter.items():
            if field.startswith("$") or isinstance(condition, (list, dict)):
                continue
            index = self._indexes.get(field)
            if index is not None:
                ids = [i for i in index.lookup(condition) if i in self._docs]
                stats["index_hits"] += 1
                break
        else:
            ids = list(self._docs)
            stats["scans"] += 1
        stats["docs_examined"] += len(ids)
        usage = self.db.usage
        if usage is not None:
            # Every read and write plans here, so one hook meters them all.
            # Filter values may be operator dicts ({"$gt": ...}) — only
            # a plain string names a tenant.
            tenant = filter.get("team") or filter.get("username")
            usage.record("docdb_ops", 1.0,
                         tenant=tenant if isinstance(tenant, str) else None)
        return ids

    def find(self, filter: Optional[dict] = None,
             projection: Optional[dict] = None) -> Cursor:
        filter = filter or {}
        docs = self._docs
        matched = [docs[i] for i in self._candidates(filter)
                   if match_document(docs[i], filter)]
        return Cursor(matched, projection=projection)

    def find_one(self, filter: Optional[dict] = None) -> Optional[dict]:
        return self.find(filter).first()

    def aggregate(self, pipeline: List[dict]) -> List[dict]:
        docs = [copy.deepcopy(d) for d in self._docs.values()]
        return run_pipeline(docs, pipeline)

    def __len__(self) -> int:
        return len(self._docs)

    def to_snapshot(self) -> dict:
        return {
            "next_oid": self._next_oid,
            "indexes": [{"field": field, "unique": index.unique}
                        for field, index in self._indexes.items()],
            "docs": [copy.deepcopy(doc) for doc in self._docs.values()],
        }

    def install_snapshot(self, snap: dict) -> int:
        """Replace this collection's state; returns its document count."""
        self._docs.clear()
        self._indexes.clear()
        for spec in snap.get("indexes", []):
            self.create_index(spec["field"], unique=spec.get("unique", False))
        for doc in snap.get("docs", []):
            self.add_document(doc)
        self._next_oid = int(snap.get("next_oid", 1))
        return len(self._docs)

    def estimated_size_bytes(self) -> int:
        """Rough storage footprint (JSON encoding length)."""
        import json
        return sum(len(json.dumps(d, default=str)) for d in self._docs.values())


class DocumentDB:
    """The database: a namespace of collections (paper's MongoDB role)."""

    def __init__(self, sim=None):
        self.sim = sim
        self._collections: Dict[str, Collection] = {}
        #: Optional :class:`~repro.durability.DurabilityManager` journal.
        #: When set, every write (insert/update/delete/index/drop) is
        #: appended to the write-ahead log after it is applied.
        self.journal = None
        #: Optional :class:`~repro.obs.usage.UsageMeter`; wired by
        #: RaiSystem so document traffic bills the owning tenant.
        self.usage = None

    def collection(self, name: str) -> Collection:
        coll = self._collections.get(name)
        if coll is None:
            coll = self._collections[name] = Collection(self, name)
        return coll

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def to_snapshot(self) -> dict:
        """Every collection, by name."""
        return {name: coll.to_snapshot()
                for name, coll in self._collections.items()}

    def install_snapshot(self, snap: dict) -> int:
        """Load :meth:`to_snapshot` output; returns the documents restored."""
        return sum(self.collection(name).install_snapshot(coll_snap)
                   for name, coll_snap in snap.items())

    def total_documents(self) -> int:
        return sum(len(c) for c in self._collections.values())

    def estimated_size_bytes(self) -> int:
        return sum(c.estimated_size_bytes()
                   for c in self._collections.values())

    def planner_stats(self) -> dict:
        """Aggregated access-path counters across every collection."""
        totals = dict.fromkeys(PLANNER_KEYS, 0)
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
