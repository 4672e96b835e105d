"""Pure path algebra for the virtual filesystem (always POSIX-style).

``normalize`` and ``split_parts`` map a string to an immutable value and a
job asks about the same few dozen paths hundreds of times, so both carry a
bounded memo.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple


@lru_cache(maxsize=1024)
def normalize(path: str) -> str:
    """Normalise to an absolute path: collapse ``.``/``..``/``//``.

    Relative paths are interpreted against ``/``.  ``..`` never escapes the
    root (as in real POSIX), which is also what makes archive extraction
    traversal-safe.
    """
    parts: List[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


@lru_cache(maxsize=1024)
def split_parts(path: str) -> Tuple[str, ...]:
    """Normalised path components (empty tuple for the root)."""
    norm = normalize(path)
    if norm == "/":
        return ()
    return tuple(norm[1:].split("/"))


def join(base: str, *parts: str) -> str:
    """Join and normalise; an absolute component restarts from root."""
    result = base
    for part in parts:
        if part.startswith("/"):
            result = part
        else:
            result = result.rstrip("/") + "/" + part
    return normalize(result)


def parent_of(path: str) -> str:
    parts = split_parts(path)
    if not parts:
        return "/"
    return "/" + "/".join(parts[:-1])


def basename(path: str) -> str:
    parts = split_parts(path)
    return parts[-1] if parts else ""


def is_within(path: str, prefix: str) -> bool:
    """True if ``path`` equals or lies under directory ``prefix``."""
    p = split_parts(path)
    q = split_parts(prefix)
    return p[: len(q)] == q
