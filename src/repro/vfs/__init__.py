"""In-memory POSIX-style virtual filesystem.

Student projects, container images, and job sandboxes all live in
:class:`VirtualFileSystem` instances.  The worker mounts the student's
project at ``/src`` (read-only) and gives the job a writable ``/build``
directory, exactly as the paper's Docker workers do (§V, "Worker
Operations").  Archives use real ``tar`` + ``bz2`` encoding over in-memory
buffers so the ``.tar.bz2`` artifacts exchanged with the file server are
genuine.
"""

from repro.vfs.path import normalize, join, parent_of, split_parts
from repro.vfs.node import FileNode, DirNode
from repro.vfs.filesystem import (
    AccessTrace,
    VirtualFileSystem,
    file_digest,
    tree_of,
    tree_signature,
)
from repro.vfs.archive import pack_tree, unpack_tree, archive_member_names

__all__ = [
    "normalize",
    "join",
    "parent_of",
    "split_parts",
    "FileNode",
    "DirNode",
    "AccessTrace",
    "VirtualFileSystem",
    "file_digest",
    "tree_of",
    "tree_signature",
    "pack_tree",
    "unpack_tree",
    "archive_member_names",
]
