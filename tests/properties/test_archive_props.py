"""The block-level tar codec against a ``tarfile`` oracle kept only here.

``repro.vfs.archive`` lays out tar blocks itself; what it must equal is
what the standard library writes for the same tree, byte for byte (sim
time, chunk digests and dedup ratios all hang off archive bytes).  The
oracle below is a plain ``tarfile.open(mode="w"|"w:bz2")`` + ``addfile``
session and a plain ``extractfile`` reader.
"""

import io
import tarfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VfsError
from repro.vfs import VirtualFileSystem, pack_tree, unpack_tree
from repro.vfs.path import normalize

# -- the oracle ---------------------------------------------------------------


def oracle_pack(fs, top, compression):
    top = normalize(top)
    skip = len(top.rstrip("/")) + 1
    buf = io.BytesIO()
    mode = "w:bz2" if compression == "bz2" else "w"
    with tarfile.open(fileobj=buf, mode=mode) as tar:
        for dirpath, dirnames, filenames in fs.walk(top):
            for name in dirnames:
                full = dirpath.rstrip("/") + "/" + name
                info = tarfile.TarInfo(full[skip:])
                info.type = tarfile.DIRTYPE
                info.mode = 0o755
                info.mtime = int(fs.stat(full)["mtime"])
                tar.addfile(info)
            for name in filenames:
                full = dirpath.rstrip("/") + "/" + name
                data = fs.read_file(full)
                stat = fs.stat(full)
                info = tarfile.TarInfo(full[skip:])
                info.size = len(data)
                info.mtime = int(stat["mtime"])
                info.mode = 0o755 if stat["executable"] else 0o644
                tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def oracle_unpack(blob, fs, dest):
    written = []
    with tarfile.open(fileobj=io.BytesIO(blob), mode="r:*") as tar:
        for member in tar.getmembers():
            target = dest + "/" + member.name.rstrip("/")
            if member.isdir():
                fs.makedirs(target)
            elif member.isfile():
                fs.write_file(target, tar.extractfile(member).read(),
                              executable=bool(member.mode & 0o100))
                written.append(target)
    return written


def snapshot(fs, top="/"):
    """Content, executable bits and the directory set under ``top``."""
    files = {path: (fs.read_file(path), fs.stat(path)["executable"])
             for path in fs.iter_files(top)}
    dirs = sorted(dirpath for dirpath, _d, _f in fs.walk(top))
    return files, dirs


# -- trees --------------------------------------------------------------------

segments = st.one_of(
    st.sampled_from(["src", "a", "b", "data", "main.cu", "Makefile",
                     "BZhang", "n" * 101, "d" * 120, "ünï", "文件.txt"]),
    st.text(alphabet="abcxyz_.-", min_size=1, max_size=6).filter(
        lambda s: s not in (".", "..")),
)
paths = st.lists(segments, min_size=1, max_size=4).map("/".join)
sizes = st.sampled_from([0, 1, 511, 512, 513, 1024, 1500, 10241])
steps = st.one_of(
    st.tuples(st.just("dir"), paths, st.floats(0, 3)),
    st.tuples(st.just("file"), paths, st.floats(0, 3), sizes,
              st.binary(min_size=1, max_size=8), st.booleans()),
)


def build(script):
    """Run a generated script against a fresh filesystem whose clock
    advances by fractional steps (headers carry ``int(mtime)``)."""
    now = [0.0]
    fs = VirtualFileSystem(clock=lambda: now[0])
    for kind, path, dt, *rest in script:
        now[0] += dt
        try:
            if kind == "dir":
                fs.makedirs("/" + path)
            else:
                size, seed, executable = rest
                fs.write_file("/" + path, (seed * size)[:size],
                              executable=executable)
        except VfsError:
            pass  # the path is already a node of the other kind
    return fs


def tops(fs):
    return ["/"] + [dirpath for dirpath, _d, _f in fs.walk("/")][1:3]


class TestByteIdentity:
    @settings(max_examples=60, deadline=None)
    @given(script=st.lists(steps, max_size=10))
    def test_pack_equals_tarfile(self, script):
        fs = build(script)
        for top in tops(fs):
            for compression in ("none", "bz2"):
                assert pack_tree(fs, top, compression=compression) == \
                    oracle_pack(fs, top, compression), (top, compression)

    @settings(max_examples=60, deadline=None)
    @given(script=st.lists(steps, max_size=10))
    def test_unpack_equals_tarfile_extraction(self, script):
        fs = build(script)
        for top in tops(fs):
            for compression in ("none", "bz2"):
                blob = pack_tree(fs, top, compression=compression)
                ours, theirs = VirtualFileSystem(), VirtualFileSystem()
                ours.makedirs("/out")
                theirs.makedirs("/out")
                assert unpack_tree(blob, ours, "/out") == \
                    oracle_unpack(blob, theirs, "/out")
                assert snapshot(ours) == snapshot(theirs)
                files, dirs = snapshot(fs, top)
                restored_files, restored_dirs = snapshot(ours, "/out")
                skip = len(top.rstrip("/"))
                assert restored_files == {
                    "/out" + path[skip:]: v for path, v in files.items()}
                assert restored_dirs == sorted(
                    ("/out" + path[skip:]).rstrip("/") for path in dirs)


class TestCorruption:
    """Damage yields ``VfsError`` or a clean unpack, nothing else."""

    @settings(max_examples=120, deadline=None)
    @given(script=st.lists(steps, min_size=1, max_size=6), data=st.data())
    def test_truncations_and_byte_flips(self, script, data):
        fs = build(script)
        compression = data.draw(st.sampled_from(["none", "bz2"]))
        blob = pack_tree(fs, "/", compression=compression)
        if data.draw(st.booleans()):
            damaged = blob[:data.draw(st.integers(0, len(blob) - 1))]
        else:
            at = data.draw(st.integers(0, len(blob) - 1))
            flip = data.draw(st.integers(1, 255))
            damaged = blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:]
        for mode in ("auto", compression):
            try:
                unpack_tree(damaged, VirtualFileSystem(), "/", mode)
            except VfsError:
                pass
