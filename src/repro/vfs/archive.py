"""Genuine ``.tar.bz2`` packing of virtual-filesystem trees.

The paper's client compresses the project directory into a ``.tar.bz2``
before uploading it to the file server (§V, Client Execution step 3), and
the worker archives ``/build`` the same way on completion (Worker
Operations step 6).  Every job crosses three archives, so this is a
block-level codec, not a ``tarfile`` session.  ``pack_tree`` lays out
``header + data + padding`` blocks, the end-of-archive blocks and the
record padding itself and compresses once; header bytes come from
``tarfile.TarInfo.tobuf`` (pax records for long or non-ASCII names
included) through a bounded memo, so an unchanged, immutable file node is a
dictionary hit.  ``unpack_tree`` decompresses once, lets ``tarfile`` parse
the *headers* and slices each member's bytes out of the buffer.

The bytes equal what ``tarfile.open(mode="w"|"w:bz2")`` + ``addfile``
writes (``tests/properties/test_archive_props.py``), so external ``tar``
reads these archives and this module reads external tarballs.  Anything
but a sound plain or bz2 tar is a ``VfsError``.
"""

from __future__ import annotations

import bz2
import io
import re
import tarfile
from functools import lru_cache
from typing import List, Tuple

from repro.errors import VfsError
from repro.vfs.filesystem import VirtualFileSystem
from repro.vfs.node import DirNode
from repro.vfs.path import normalize, split_parts

#: ``BZh``, the level digit, then the first block's magic: a project file
#: called ``BZhang.txt`` heading a plain tar must not be taken for bz2.
_BZ2_STREAM = re.compile(rb"BZh[1-9]1AY&SY")


@lru_cache(maxsize=1024)
def _header(name: str, size: int, mtime: int, mode: int,
            isdir: bool) -> bytes:
    """The header block(s) ``tarfile`` writes for one member."""
    info = tarfile.TarInfo(name)
    info.size = size
    info.mtime = mtime
    info.mode = mode
    if isdir:
        info.type = tarfile.DIRTYPE
    return info.tobuf(tarfile.DEFAULT_FORMAT, tarfile.ENCODING,
                      "surrogateescape")


def pack_tree(fs: VirtualFileSystem, top: str = "/",
              compression: str = "bz2") -> bytes:
    """Serialise everything under ``top`` into a tar archive.

    Member names are relative to ``top``.  Directories are included so that
    empty directories survive the round trip.
    """
    top = normalize(top)
    skip = len(top.rstrip("/")) + 1
    blocks: List[bytes] = []
    for path, node in fs.iter_members(top):
        isdir = isinstance(node, DirNode)
        data = b"" if isdir else node.data
        mode = 0o755 if isdir or node.executable else 0o644
        blocks += (_header(path[skip:], len(data), int(node.mtime), mode, isdir),
                   data, tarfile.NUL * (-len(data) % tarfile.BLOCKSIZE))
    blocks.append(tarfile.NUL * (2 * tarfile.BLOCKSIZE))
    blocks.append(tarfile.NUL * (-sum(map(len, blocks)) % tarfile.RECORDSIZE))
    raw = b"".join(blocks)
    return bz2.compress(raw, 9) if compression == "bz2" else raw


def _read_archive(blob: bytes,
                  compression: str) -> Tuple[bytes, List[tarfile.TarInfo]]:
    """The uncompressed tar and its parsed member headers."""
    try:
        if compression == "bz2" or (compression == "auto"
                                    and _BZ2_STREAM.match(blob)):
            blob = bz2.decompress(blob)
        with tarfile.open(fileobj=io.BytesIO(blob), mode="r:") as tar:
            return blob, tar.getmembers()
    except (tarfile.TarError, OSError, EOFError, ValueError) as exc:
        raise VfsError(f"invalid archive: {exc}") from exc


def unpack_tree(blob: bytes, fs: VirtualFileSystem, dest: str = "/",
                compression: str = "auto") -> List[str]:
    """Extract an archive into ``fs`` under ``dest``; returns written paths.

    Member names are normalised through the VFS path algebra, so ``..``
    components cannot escape ``dest`` (no tar-slip).  ``compression``
    defaults to auto-detection: project uploads are plain tars (chunks
    dedup poorly through bz2's positional coding) while build outputs
    stay ``.tar.bz2``, and the consumer should not care.
    """
    base = normalize(dest).rstrip("/")
    raw, members = _read_archive(blob, compression)
    written: List[str] = []
    for member in members:
        target = base + "/" + "/".join(split_parts(member.name))
        if member.isdir():
            fs.makedirs(target)
        elif member.isfile():
            if member.sparse is not None:
                raise VfsError(
                    f"invalid archive: sparse member {member.name!r}")
            data = raw[member.offset_data:member.offset_data + member.size]
            if len(data) != member.size:
                raise VfsError(
                    f"invalid archive: member {member.name!r} is cut short")
            fs.write_file(target, data, executable=bool(member.mode & 0o100))
            written.append(target)
        # symlinks/devices are silently dropped: they have no meaning in
        # the sandbox and are a classic container-escape vector.
    return written


def archive_member_names(blob: bytes, compression: str = "auto") -> List[str]:
    """List member names without extracting (used by submission checks)."""
    return [member.name for member in _read_archive(blob, compression)[1]]
