"""Filesystem node types."""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Union


def file_digest(data: bytes) -> str:
    """SHA-256 content digest used by access tracking and build caching."""
    return hashlib.sha256(data).hexdigest()


class FileNode:
    """A regular file: immutable content, mtime and executable bit.

    A node is never changed after construction (``write_file`` installs a
    new one), so trees may share it: ``clone`` returns the node itself and
    a copy, graft or archive-header memo can rely on what it saw.  For the
    same reason the node remembers its SHA-256 once it is first asked for
    (:attr:`digest`), and a :meth:`stamped` copy carries it over.
    """

    __slots__ = ("data", "mtime", "executable", "_digest")

    def __init__(self, data: bytes = b"", mtime: float = 0.0,
                 executable: bool = False):
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"file data must be bytes, got {type(data).__name__}")
        init = object.__setattr__
        init(self, "data", bytes(data))
        init(self, "mtime", float(mtime))
        init(self, "executable", bool(executable))
        init(self, "_digest", None)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"FileNode is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def digest(self) -> str:
        """SHA-256 hex digest of the content, computed at most once."""
        digest: Optional[str] = self._digest
        if digest is None:
            digest = file_digest(self.data)
            object.__setattr__(self, "_digest", digest)
        return digest

    def clone(self) -> "FileNode":
        return self

    def stamped(self, mtime: float) -> "FileNode":
        """The same content and mode at ``mtime`` (digest carried over)."""
        node = object.__new__(FileNode)
        init = object.__setattr__
        init(node, "data", self.data)
        init(node, "mtime", float(mtime))
        init(node, "executable", self.executable)
        init(node, "_digest", self._digest)
        return node

    def __repr__(self):
        return f"<FileNode {self.size}B>"


class DirNode:
    """A directory mapping names to child nodes."""

    __slots__ = ("children", "mtime")

    def __init__(self, mtime: float = 0.0):
        self.children: Dict[str, Union[FileNode, "DirNode"]] = {}
        self.mtime = float(mtime)

    def clone(self) -> "DirNode":
        """A private copy of the directory structure; file nodes are shared."""
        node = DirNode(self.mtime)
        for name, child in self.children.items():
            node.children[name] = child.clone()
        return node

    def stamped(self, mtime: float) -> "DirNode":
        """A private copy of the whole tree with every node, this one
        included, at ``mtime``: what writing it afresh at that instant
        would build.  A frozen tree (an image's, a volume's) is never
        mounted itself, only stamped copies of it."""
        node = DirNode(mtime)
        children = node.children
        for name, child in self.children.items():
            children[name] = child.stamped(mtime)
        return node

    def __repr__(self):
        return f"<DirNode {len(self.children)} entries>"
