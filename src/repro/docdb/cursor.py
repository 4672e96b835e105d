"""Query cursors: sort / skip / limit / projection over result sets."""

from __future__ import annotations

import copy
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

from repro.docdb.query import get_path, _MISSING

SortSpec = Union[str, Sequence[Tuple[str, int]]]


class _SortKey:
    """Total-order wrapper so mixed/missing values sort deterministically.

    Order: missing < None < numbers < strings < lists < dicts — a simplified
    version of MongoDB's BSON type ordering.
    """

    __slots__ = ("rank", "value")

    _RANKS = [(type(None), 1), ((int, float), 2), (str, 3),
              ((list, tuple), 4), (dict, 5)]

    def __init__(self, value):
        if value is _MISSING:
            self.rank, self.value = 0, None
            return
        for types, rank in self._RANKS:
            if isinstance(value, types):
                self.rank = rank
                self.value = value
                return
        self.rank, self.value = 6, str(value)

    def __lt__(self, other: "_SortKey"):
        if self.rank != other.rank:
            return self.rank < other.rank
        if self.rank in (1,):
            return False
        if self.rank == 5:
            return sorted(self.value) < sorted(other.value)
        try:
            return self.value < other.value
        except TypeError:
            return str(self.value) < str(other.value)

    def __eq__(self, other):
        return self.rank == other.rank and self.value == other.value


def normalize_sort(sort: SortSpec) -> List[Tuple[str, int]]:
    if isinstance(sort, str):
        return [(sort, 1)]
    out = []
    for item in sort:
        if isinstance(item, str):
            out.append((item, 1))
        else:
            field, direction = item
            if direction not in (1, -1):
                raise ValueError(f"sort direction must be 1 or -1: {direction}")
            out.append((field, direction))
    return out


def apply_projection(doc: dict, projection: Optional[dict]) -> dict:
    """A private copy of ``doc`` under an include/exclude-style projection
    (no mixing, except ``_id``).  An include projection copies only the
    fields it keeps."""
    if projection is None:
        return copy.deepcopy(doc)
    include_keys = [k for k, v in projection.items() if v and k != "_id"]
    exclude_keys = [k for k, v in projection.items() if not v and k != "_id"]
    if include_keys and exclude_keys:
        raise ValueError("cannot mix include and exclude in a projection")
    if include_keys:
        out = {}
        if projection.get("_id", 1):
            if "_id" in doc:
                out["_id"] = doc["_id"]
        for key in include_keys:
            value = get_path(doc, key)
            if value is not _MISSING:
                _assign_path(out, key, value)
        return out
    out = copy.deepcopy(doc)
    for key in exclude_keys:
        _delete_path(out, key)
    if not projection.get("_id", 1):
        out.pop("_id", None)
    return out


def _assign_path(doc: dict, path: str, value) -> None:
    parts = path.split(".")
    current = doc
    for part in parts[:-1]:
        current = current.setdefault(part, {})
    current[parts[-1]] = copy.deepcopy(value)


def _delete_path(doc: dict, path: str) -> None:
    parts = path.split(".")
    current = doc
    for part in parts[:-1]:
        if not isinstance(current, dict) or part not in current:
            return
        current = current[part]
    if isinstance(current, dict):
        current.pop(parts[-1], None)


class Cursor:
    """A lazily-sorted, sliceable view over matched documents."""

    def __init__(self, documents: List[dict],
                 projection: Optional[dict] = None):
        self._docs = documents
        self._projection = projection
        self._sort: Optional[List[Tuple[str, int]]] = None
        self._limit: Optional[int] = None

    def sort(self, spec: SortSpec) -> "Cursor":
        self._sort = normalize_sort(spec)
        return self

    def limit(self, n: int) -> "Cursor":
        if n < 0:
            raise ValueError("limit must be >= 0")
        self._limit = n
        return self

    def _materialize(self) -> List[dict]:
        docs = list(self._docs)
        if self._sort:
            # Stable sort by keys in reverse significance order.
            for field, direction in reversed(self._sort):
                docs.sort(key=lambda d: _SortKey(get_path(d, field)),
                          reverse=(direction == -1))
        if self._limit is not None:
            docs = docs[: self._limit]
        return [apply_projection(d, self._projection) for d in docs]

    def __iter__(self) -> Iterator[dict]:
        return iter(self._materialize())

    def to_list(self) -> List[dict]:
        return self._materialize()

    def first(self) -> Optional[dict]:
        docs = self._materialize()
        return docs[0] if docs else None

    def count(self) -> int:
        return len(self._materialize())
