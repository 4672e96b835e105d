"""Genuine ``.tar.bz2`` packing of virtual-filesystem trees.

The paper's client compresses the project directory into a ``.tar.bz2``
before uploading it to the file server (§V, Client Execution step 3), and
the worker archives ``/build`` the same way on completion (Worker
Operations step 6).  Every job crosses three archives, so this module is
its own block-level tar codec, with a bounded memo at each costly step:

- ``pack_tree`` lays out ``header + data + padding`` blocks, the
  end-of-archive blocks and the record padding.  It formats each ustar
  header itself (behind a pax ``x`` header when a name is long or
  non-ASCII, or a number overflows its field) through a memo, so an
  unchanged file node is a dictionary hit.  The bz2 stream comes from a
  two-entry memo keyed on the raw tar, so the same tree packed again
  (the empty ``/build`` of a job that writes nothing there) is
  compressed once.
- ``unpack_tree`` decompresses once and walks the buffer block by block.
  Each 512-byte header is parsed through a memo keyed on the block (ustar
  fields with the ``prefix`` split, octal and base-256 numbers, a
  verified checksum), so an unchanged member costs a dictionary hit.  The
  walk applies pax ``x``/``g`` records and GNU ``L``/``K`` long names and
  stops where the standard library's reader stops: at a zero block, at
  the end of the data, or at a damaged header after the first (a damaged
  *first* header is an error).  A pax record must be framed as that
  reader has required since its CVE-2024-6232 fix, or its header counts
  as damaged; the length scan is bounded, so no payload costs quadratic
  time.  Members' bytes are sliced out of the buffer.

The bytes equal what the standard library writes for the same members
(pax format, ``w`` or ``w:bz2``) and the members equal what it reads
(``tests/properties/test_archive_props.py``), so external ``tar`` reads
these archives and this module reads external tarballs.  Anything but a
sound plain or bz2 tar is a ``VfsError``; so are sparse members and
negative member sizes, which no sandbox upload needs.
"""

from __future__ import annotations

import bz2
import re
import struct
import sys
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import VfsError
from repro.vfs.filesystem import VirtualFileSystem
from repro.vfs.node import DirNode
from repro.vfs.path import normalize

BLOCK = 512
RECORD = 20 * BLOCK
_ZERO_BLOCK = bytes(BLOCK)
#: Names in headers and pax records use the filesystem encoding with
#: ``surrogateescape``, as the standard library's reader does.
_ENCODING = sys.getfilesystemencoding()

#: ``BZh``, the level digit, then the first block's magic: a project file
#: called ``BZhang.txt`` heading a plain tar must not be taken for bz2.
_BZ2_STREAM = re.compile(rb"BZh[1-9]1AY&SY")

_DIR = b"5"
_REGULAR = (b"0", b"\0", b"7")
#: Member types whose size does not count data blocks; any other type
#: (unknown ones too) is followed by ``size`` bytes of data.
_DATALESS = (b"1", b"2", b"3", b"4", b"5", b"6")
#: A pax record's length prefix: bounded, so a run of digits costs O(1).
_PAX_LENGTH = re.compile(rb"([0-9]{1,20}) ")


def _padded(size: int) -> int:
    return -(-size // BLOCK) * BLOCK


# -- writing ------------------------------------------------------------------

def _ustar(name: bytes, mode: int, size: int, mtime: int, kind: bytes) -> bytes:
    """One ustar header block: owner 0:0, no link, no user or group name."""
    head = (name[:100].ljust(100, b"\0") + b"%07o\0" % mode
            + b"0000000\0" * 2 + b"%011o\0" % size + b"%011o\0" % mtime)
    tail = kind + bytes(100) + b"ustar\x0000" + bytes(32 + 32 + 8 + 8 + 155 + 12)
    # The checksum counts its own field as eight spaces.
    return head + b"%06o\0 " % (256 + sum(head) + sum(tail)) + tail


def _pax_header(records: Dict[str, str]) -> bytes:
    """A pax ``x`` header and its records (``hdrcharset=BINARY`` when a
    value holds undecodable bytes)."""
    try:
        pairs = [(k.encode(), v.encode("utf-8")) for k, v in records.items()]
        body = b""
    except UnicodeEncodeError:
        pairs = [(k.encode(), v.encode(_ENCODING, "surrogateescape"))
                 for k, v in records.items()]
        body = b"21 hdrcharset=BINARY\n"
    for keyword, value in pairs:
        # The length prefix counts its own digits.
        length = len(keyword) + len(value) + 3
        total = 0
        while (n := length + len(str(total))) != total:
            total = n
        body += b"%d %s=%s\n" % (total, keyword, value)
    return (_ustar(b"././@PaxHeader", 0, len(body), 0, b"x") + body
            + bytes(-len(body) % BLOCK))


@lru_cache(maxsize=1024)
def _header(name: str, size: int, mtime: int, mode: int,
            isdir: bool) -> bytes:
    """The header block(s) of one member in the pax format: a ustar block,
    behind an ``x`` header when a field does not fit it."""
    if isdir and not name.endswith("/"):
        name += "/"
    records: Dict[str, str] = {}
    if not name.isascii() or len(name) > 100:
        records["path"] = name
    if not 0 <= size < 8 ** 11:
        records["size"], size = str(size), 0
    if not 0 <= mtime < 8 ** 11:
        records["mtime"], mtime = str(mtime), 0
    block = _ustar(name.encode("ascii", "replace"), mode & 0o7777, size, mtime,
                   _DIR if isdir else b"0")
    return _pax_header(records) + block if records else block


@lru_cache(maxsize=2)
def _compress(raw: bytes) -> bytes:
    """``bz2.compress(raw, 9)``: a pure function of the tar bytes."""
    return bz2.compress(raw, 9)


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
                   data, bytes(-len(data) % BLOCK))
    blocks.append(bytes(2 * BLOCK))
    blocks.append(bytes(-sum(map(len, blocks)) % RECORD))
    raw = b"".join(blocks)
    return _compress(raw) if compression == "bz2" else raw


# -- reading ------------------------------------------------------------------

class _BadHeader(Exception):
    """A header block that does not parse: fatal first, the end later."""


class _ZeroBlock(Exception):
    """An all-zero header block: the end of the archive."""


def _number(field: bytes) -> int:
    """A numeric field: NUL-terminated octal, or GNU base-256."""
    if field[0] in (0o200, 0o377):
        n = int.from_bytes(field[1:], "big")
        return n - 256 ** (len(field) - 1) if field[0] == 0o377 else n
    try:
        text = field.split(b"\0", 1)[0].decode("ascii")
        return int(text.strip() or "0", 8)
    except ValueError:
        raise _BadHeader("invalid header") from None


def _string(field: bytes) -> str:
    return field.split(b"\0", 1)[0].decode(_ENCODING, "surrogateescape")


def _decode_path(raw: bytes, encoding: str) -> str:
    """A pax ``path`` record: ``encoding`` if it decodes, else raw bytes."""
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError:
        return raw.decode(_ENCODING, "surrogateescape")


@lru_cache(maxsize=2048)
def _parse_header(block: bytes) -> Tuple[str, bytes, int, int]:
    """``(name, type, mode, size)`` of one non-zero 512-byte header block."""
    chksum = _number(block[148:156])
    if chksum not in (256 + sum(struct.unpack_from("148B8x356B", block)),
                      256 + sum(struct.unpack_from("148b8x356b", block))):
        raise _BadHeader("bad checksum")
    name = _string(block[:100])
    mode = _number(block[100:108])
    size = _number(block[124:136])
    kind = block[156:157]
    for at in (108, 116, 136, 329, 337):     # uid gid mtime devmajor/minor
        _number(block[at:at + (12 if at == 136 else 8)])
    if kind == b"\0" and name.endswith("/"):     # a V7 directory
        kind = _DIR
    if kind == _DIR:
        name = name.rstrip("/")
    prefix = _string(block[345:500])
    if prefix and kind not in (b"L", b"K", b"S"):
        name = prefix + "/" + name
    return name, kind, mode, size


class _Member:
    __slots__ = ("name", "kind", "mode", "size", "offset_data")

    def __init__(self, name: str, kind: bytes, mode: int, size: int,
                 offset_data: int):
        self.name = name
        self.kind = kind
        self.mode = mode
        self.size = size
        self.offset_data = offset_data


class _Walk:
    """One pass over an uncompressed tar, member by member.

    ``pos`` is the read position and ``offset`` where the next member's
    header starts; they differ after a member with data.
    """

    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0
        self.offset = 0
        self.globals: Dict[str, str] = {}   # pax ``g`` records in force

    def members(self) -> List[_Member]:
        found: List[_Member] = []
        while True:
            if self.offset != self.pos:
                if self.offset > len(self.raw):
                    raise VfsError("invalid archive: unexpected end of data")
                self.pos = self.offset
            start = self.offset
            try:
                found.append(self._member())
            except _ZeroBlock:
                return found
            except _BadHeader as exc:
                if start == 0:
                    raise VfsError(f"invalid archive: {exc}") from None
                return found

    def _member(self) -> _Member:
        """The member whose header chain starts at ``pos``."""
        block = self.raw[self.pos:self.pos + BLOCK]
        if len(block) < BLOCK:
            raise _BadHeader("truncated header" if block else "empty file")
        if block == _ZERO_BLOCK:
            raise _ZeroBlock("end of file header")
        name, kind, mode, size = _parse_header(block)
        self.pos += BLOCK
        if kind in (b"L", b"K"):
            payload = self._payload(size)
            member = self._subsequent()
            if kind == b"L":
                member.name = _string(payload)
            if member.kind == _DIR:
                member.name = member.name.removesuffix("/")
            return member
        if kind in (b"x", b"g", b"X"):
            return self._pax(kind, size)
        if kind == b"S":
            raise VfsError(f"invalid archive: sparse member {name!r}")
        member = _Member(name, kind, mode, size, self.pos)
        self.offset = self.pos + self._data_blocks(member)
        if self.globals:
            self._apply(member, self.globals)
            if kind == _DIR:
                member.name = member.name.rstrip("/")
        return member

    def _payload(self, size: int) -> bytes:
        """An extension header's data blocks (short at the end of data)."""
        if size < 0:
            raise VfsError("invalid archive: negative size")
        payload = self.raw[self.pos:self.pos + _padded(size)]
        self.pos += len(payload)
        return payload

    def _subsequent(self) -> _Member:
        """The member an extension header describes: it must be there."""
        try:
            return self._member()
        except (_BadHeader, _ZeroBlock) as exc:
            raise VfsError(f"invalid archive: {exc}") from None

    def _data_blocks(self, member: _Member) -> int:
        if member.kind in _DATALESS:
            return 0
        if member.size < 0:
            raise VfsError(
                f"invalid archive: negative size for {member.name!r}")
        return _padded(member.size)

    def _pax(self, kind: bytes, size: int) -> _Member:
        """A pax extended (``x``) or global (``g``) header.

        Every record must be framed ``"<length> <keyword>=<value>\\n"``,
        the length counting the whole record; records end at a NUL.  The
        first ``hdrcharset`` record of this header decides how its ``path``
        decodes.
        """
        buf = self._payload(size)
        raw: List[Tuple[bytes, bytes]] = []
        binary = None
        pos = 0
        while pos < len(buf) and buf[pos] != 0:
            match = _PAX_LENGTH.match(buf, pos)
            length = int(match.group(1)) if match else 0
            if length < 5 or pos + length > len(buf):
                raise _BadHeader("invalid header")
            last = pos + length - 1
            keyword, equals, value = buf[match.end():last].partition(b"=")
            if not keyword or not equals or buf[last] != 0x0A:
                raise _BadHeader("invalid header")
            if keyword == b"hdrcharset" and binary is None:
                binary = value == b"BINARY"
            raw.append((keyword, value))
            pos += length
        path_encoding = _ENCODING if binary else "utf-8"
        records = self.globals if kind == b"g" else dict(self.globals)
        for keyword, value in raw:
            key = keyword.decode("utf-8", "surrogateescape")
            records[key] = (
                _decode_path(value, path_encoding) if key == "path"
                else value.decode("utf-8", "surrogateescape"))
        member = self._subsequent()
        if any(keyword.startswith("GNU.sparse.") for keyword in records):
            raise VfsError(f"invalid archive: sparse member {member.name!r}")
        if kind != b"g":
            self._apply(member, records)
            if "size" in records:
                self.offset = member.offset_data + self._data_blocks(member)
        return member

    @staticmethod
    def _apply(member: _Member, records: Dict[str, str]) -> None:
        """Override header fields with pax records (the ones unpacking
        reads)."""
        if "path" in records:
            member.name = records["path"].rstrip("/")
        if "size" in records:
            try:
                member.size = int(records["size"])
            except ValueError:
                member.size = 0


def _read_archive(blob: bytes) -> Tuple[bytes, List[_Member]]:
    """The uncompressed tar (bz2 detected by its stream header) and its
    members."""
    try:
        if _BZ2_STREAM.match(blob):
            blob = bz2.decompress(blob)
        blob = bytes(blob)      # a no-op on bytes; header slices are keys
        return blob, _Walk(blob).members()
    except (OSError, EOFError, ValueError, RecursionError) as exc:
        raise VfsError(f"invalid archive: {exc}") from exc


def unpack_tree(blob: bytes, fs: VirtualFileSystem,
                dest: str = "/") -> List[str]:
    """Extract an archive into ``fs`` under ``dest``; returns written paths.

    Member names are normalised through the VFS path algebra, so ``..``
    components cannot escape ``dest`` (no tar-slip).  Compression is
    detected: project uploads are plain tars (chunks dedup poorly through
    bz2's positional coding) while build outputs stay ``.tar.bz2``, and
    the consumer should not care.  The tree is built in one pass
    (:meth:`~repro.vfs.filesystem.VirtualFileSystem.extract`).
    """
    raw, members = _read_archive(blob)
    return fs.extract(normalize(dest).rstrip("/"), _entries(raw, members))


def _entries(raw: bytes, members: List[_Member]
             ) -> Iterator[Tuple[str, Optional[bytes], bool]]:
    """``(name, data, executable)`` per directory (``data`` None) and
    regular file, in archive order."""
    for member in members:
        if member.kind == _DIR:
            yield member.name, None, False
        elif member.kind in _REGULAR:
            data = raw[member.offset_data:member.offset_data + member.size]
            if len(data) != member.size:
                raise VfsError(
                    f"invalid archive: member {member.name!r} is cut short")
            yield member.name, data, bool(member.mode & 0o100)
        # links, devices and unknown types are silently dropped: they have
        # no meaning in the sandbox and are a classic container-escape vector.


def archive_member_names(blob: bytes) -> List[str]:
    """List member names without extracting (used by submission checks)."""
    return [member.name for member in _read_archive(blob)[1]]
