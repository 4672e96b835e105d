"""One-pass extraction lands every member where the per-member loop did.

``unpack_tree`` builds the tree in one pass
(``VirtualFileSystem.extract``): each directory is resolved once per call
instead of once per member through ``makedirs`` / ``write_file``.
:func:`per_member` keeps the loop it replaced, here only, as the oracle.
Over generated archives (``..`` and ``.`` in names, absolute names,
duplicates, a file where a directory goes and back, links), generated
trees already in place, destinations, read-only prefixes and tracking,
both leave the same tree (content, mtimes, exec bits), return the same
paths, record the same writes and raise the same error.
"""

import io
import tarfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VfsError
from repro.vfs import DirNode, VirtualFileSystem, unpack_tree
from repro.vfs.archive import _DIR, _REGULAR, _read_archive
from repro.vfs.path import normalize, split_parts


def per_member(blob, fs, dest):
    """The replaced loop: ``makedirs`` or ``write_file`` per member."""
    base = normalize(dest).rstrip("/")
    raw, members = _read_archive(blob)
    written = []
    for member in members:
        target = base + "/" + "/".join(split_parts(member.name))
        if member.kind == _DIR:
            fs.makedirs(target)
        elif member.kind in _REGULAR:
            data = raw[member.offset_data:member.offset_data + member.size]
            if len(data) != member.size:
                raise VfsError(
                    f"invalid archive: member {member.name!r} is cut short")
            fs.write_file(target, data, executable=bool(member.mode & 0o100))
            written.append(target)
    return written


segments = st.sampled_from(["a", "b", "c", "..", ".", "", "d.txt"])
names = st.lists(segments, min_size=1, max_size=4).map("/".join) | \
    st.lists(segments, min_size=1, max_size=3).map(
        lambda parts: "/" + "/".join(parts))
members = st.lists(st.tuples(
    names, st.sampled_from(["file", "dir", "link"]), st.binary(max_size=9),
    st.booleans()), max_size=8)
existing = st.dictionaries(
    st.sampled_from(["a", "a/b", "x/a", "x/y/c", "b/", "x/a/"]),
    st.binary(max_size=4), max_size=3)


def _tar(entries) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.PAX_FORMAT) \
            as tar:
        for name, kind, data, executable in entries:
            info = tarfile.TarInfo(name)
            info.mode = 0o755 if executable else 0o644
            if kind == "dir":
                info.type = tarfile.DIRTYPE
                tar.addfile(info)
            elif kind == "link":
                info.type = tarfile.SYMTYPE
                info.linkname = "/etc/passwd"
                tar.addfile(info)
            else:
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def _fs(tree, readonly, tracking, now):
    fs = VirtualFileSystem(clock=lambda: now)
    for path, data in tree.items():
        try:
            if path.endswith("/"):
                fs.makedirs("/" + path)
            else:
                fs.write_file("/" + path, data, executable=len(data) % 2)
        except VfsError:
            pass                    # a conflicting shape: keep the first
    if readonly:
        fs.set_readonly(readonly)
    if tracking:
        fs.start_tracking()
    return fs


def _facts(fs):
    nodes = {}

    def rec(path, node):
        if isinstance(node, DirNode):
            nodes[path] = ("dir", node.mtime)
            for name, child in node.children.items():
                rec(path.rstrip("/") + "/" + name, child)
        else:
            nodes[path] = (node.data, node.mtime, node.executable)

    rec("/", fs.root)
    trace = fs._trace
    return nodes, trace and (dict(trace.inputs), sorted(trace.writes))


def _run(unpack, blob, fs, dest):
    try:
        outcome = unpack(blob, fs, dest)
    except VfsError as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, _facts(fs)


@settings(max_examples=300)
@given(entries=members, tree=existing,
       dest=st.sampled_from(["/", "/x", "x/y/", "/a/b/..", "/src"]),
       readonly=st.sampled_from([None, "/x/y", "/src", "/a", "/"]),
       tracking=st.booleans(), now=st.floats(0, 1e4, allow_nan=False))
def test_one_pass_extraction_matches_the_per_member_loop(
        entries, tree, dest, readonly, tracking, now):
    blob = _tar(entries)
    expected = _run(per_member, blob, _fs(tree, readonly, tracking, now),
                    dest)
    assert _run(unpack_tree, blob, _fs(tree, readonly, tracking, now),
                dest) == expected


@settings(max_examples=60)
@given(entries=members, cut=st.integers(1, 600))
def test_damaged_archives_fail_alike(entries, cut):
    blob = _tar(entries)[:-cut] if entries else b"\0" * 3
    assert _run(unpack_tree, blob, VirtualFileSystem(), "/") == \
        _run(per_member, blob, VirtualFileSystem(), "/")
