"""Filesystem node types."""

from __future__ import annotations

from typing import Dict, Union


class FileNode:
    """A regular file: immutable content, mtime and executable bit.

    A node is never changed after construction (``write_file`` installs a
    new one), so trees may share it: ``clone`` returns the node itself and
    a copy, graft or archive-header memo can rely on what it saw.
    """

    __slots__ = ("data", "mtime", "executable")

    def __init__(self, data: bytes = b"", mtime: float = 0.0,
                 executable: bool = False):
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"file data must be bytes, got {type(data).__name__}")
        init = object.__setattr__
        init(self, "data", bytes(data))
        init(self, "mtime", float(mtime))
        init(self, "executable", bool(executable))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"FileNode is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    @property
    def size(self) -> int:
        return len(self.data)

    def clone(self) -> "FileNode":
        return self

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

    def __repr__(self):
        return f"<DirNode {len(self.children)} entries>"
