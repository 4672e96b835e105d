"""The block-level tar codec against a ``tarfile`` oracle kept only here.

``repro.vfs.archive`` lays out tar blocks itself; what it must equal is
what the standard library writes for the same tree, byte for byte (sim
time, chunk digests and dedup ratios all hang off archive bytes).  The
oracle below is a plain ``tarfile.open(mode="w"|"w:bz2")`` + ``addfile``
session and a plain ``extractfile`` reader.
"""

import bz2
import io
import tarfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VfsError
from repro.vfs import (VirtualFileSystem, archive_member_names, pack_tree,
                       unpack_tree)
from repro.vfs.archive import _compress, _header
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
    @settings(max_examples=60)
    @given(script=st.lists(steps, max_size=10))
    def test_pack_equals_tarfile(self, script):
        fs = build(script)
        for top in tops(fs):
            for compression in ("none", "bz2"):
                assert pack_tree(fs, top, compression=compression) == \
                    oracle_pack(fs, top, compression), (top, compression)

    @settings(max_examples=60)
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


@pytest.mark.parametrize("name, size, mtime, mode, isdir", [
    ("a\udcff.cu", 5, 3, 0o644, False),        # undecodable: hdrcharset
    ("x" * 300, 8 ** 11, -5, 0o755, False),     # numbers overflow to pax
    ("d\udc80" * 60, 0, 8 ** 12, 0o755, True),
    ("a" * 100, 0, 0, 0o644, True),             # the slash makes it 101
])
def test_header_edge_cases_read_back_by_tarfile(name, size, mtime, mode,
                                                isdir):
    blob = _header(name, size, mtime, mode, isdir) + bytes(1024)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        info = tar.firstmember
    assert (info.name, info.size, info.mtime, info.mode, info.isdir()) == (
        name, size, mtime, mode, isdir)


class TestCorruption:
    """Damage yields ``VfsError`` or a clean unpack, nothing else."""

    @settings(max_examples=120)
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
        try:
            unpack_tree(damaged, VirtualFileSystem(), "/")
        except VfsError:
            pass


class TestCompressMemo:
    @settings(max_examples=30)
    @given(script=st.lists(steps, max_size=6))
    def test_memo_returns_what_bz2_compress_returns(self, script):
        raw = pack_tree(build(script), "/", compression="none")
        for _ in range(2):      # the second call is served from the memo
            assert _compress(raw) == bz2.compress(raw, 9)


# -- archives the writer never makes ------------------------------------------
#
# ``tarfile``'s own header writer assembles them member by member, so the
# reader meets GNU ``L``/``K`` long names, ustar ``prefix`` splits, pax
# records and global headers, base-256 numbers, links and devices, bytes
# after the end blocks and damaged checksums.  Whatever ``tarfile`` reads,
# the codec must read the same; whatever ``tarfile`` refuses, the codec
# must refuse with a ``VfsError``.

FORMATS = {"ustar": tarfile.USTAR_FORMAT, "gnu": tarfile.GNU_FORMAT,
           "pax": tarfile.PAX_FORMAT}


def rechecksum(block):
    """``block`` with its checksum field recomputed."""
    block = bytearray(block)
    block[148:156] = b" " * 8
    block[148:155] = b"%06o\0" % sum(block)
    return bytes(block)


def assemble(entries, fmt):
    """The tar ``tarfile`` writes for ``entries`` (no end blocks), and
    where each entry's first header block starts."""
    out, starts = bytearray(), []
    for i, (kind, *args) in enumerate(entries):
        starts.append(len(out))
        if kind == "global":
            out += tarfile.TarInfo.create_pax_global_header(dict(args[0]))
            continue
        info = tarfile.TarInfo("/".join((f"m{i}", *args[0])))
        data, trick, member_fmt = b"", None, FORMATS[fmt]
        if kind == "file":
            data, executable, trick = args[1:]
            info.size = len(data)
            info.mode = 0o755 if executable else 0o644
            if trick == "pax_size":      # ustar field 0, pax record the truth
                info.size = 0
                info.pax_headers = {"size": str(len(data))}
                member_fmt = tarfile.PAX_FORMAT
        elif kind == "dir":
            info.type, info.mode = tarfile.DIRTYPE, 0o755
        elif kind == "link":
            info.type, info.linkname = args[1:]
        else:
            info.type, info.devmajor, info.devminor = args[1], 8, 1
        try:
            header = info.tobuf(member_fmt, "utf-8", "surrogateescape")
        except ValueError:      # no ustar split fits this name: pax it
            header = info.tobuf(tarfile.PAX_FORMAT, "utf-8",
                                "surrogateescape")
        if trick == "base256":
            last = bytearray(header[-512:])
            last[124:136] = b"\x80" + len(data).to_bytes(11, "big")
            header = header[:-512] + rechecksum(last)
        out += header + data + bytes(-len(data) % 512)
    return bytes(out), starts


def pax_header(payload):
    """A pax ``x`` header block and ``payload`` as its padded data."""
    header = tarfile.TarInfo("././@PaxHeader")
    header.type, header.size = tarfile.XHDTYPE, len(payload)
    return (header.tobuf(tarfile.USTAR_FORMAT) + payload
            + bytes(-len(payload) % 512))


def pax_payloads(raw, starts):
    """``(start, size)`` of every pax ``x``/``g`` payload in ``raw``."""
    return [(at + 512, int(raw[at + 124:at + 136].rstrip(b"\0 ") or b"0", 8))
            for at in starts if raw[at + 156:at + 157] in (b"x", b"g")]


def misframed(payload):
    """Whether a pax payload breaks the record framing that ``tarfile``
    enforces since the CVE-2024-6232 fix: ``"<length> <key>=<value>\\n"``
    records, the length counting the whole record, up to a NUL."""
    pos = 0
    while pos < len(payload) and payload[pos] != 0:
        digits = payload[pos:pos + 21].split(b" ", 1)[0]
        if not (digits.isdigit() and len(digits) < 21) or int(digits) < 5:
            return True
        record = payload[pos:pos + int(digits)]
        keyword, equals, _ = record[len(digits) + 1:-1].partition(b"=")
        if len(record) < int(digits) or not record.endswith(b"\n") \
                or not (keyword and equals):
            return True
        pos += len(record)
    return False


def first_misframed(raw, starts):
    """Where the first entry with a misframed pax payload starts."""
    for at, size in pax_payloads(raw, starts):
        if misframed(raw[at:at - (-size // 512) * 512]):
            return at - 512
    return None


def damage(raw, starts, how):
    """End blocks plus ``how``: nothing, bytes after them, bytes instead
    of them, a flipped name byte in the k-th entry's first header, or
    bytes overwritten in the k-th pax payload."""
    kind, arg = how
    if kind == "checksum" and starts:
        raw = bytearray(raw)
        raw[starts[arg % len(starts)]] ^= 0x01
    payloads = pax_payloads(raw, starts)
    if kind == "pax" and payloads:
        k, edits = arg
        at, size = payloads[k % len(payloads)]
        raw = bytearray(raw)
        for offset, byte in edits:
            raw[at + offset % size] = byte
    if kind == "unterminated":
        return bytes(raw) + arg
    return bytes(raw) + bytes(1024) + (arg if kind == "trailing" else b"")


def read_ours(blob):
    try:
        names = archive_member_names(blob)
        fs = VirtualFileSystem()
        fs.makedirs("/out")
        written = unpack_tree(blob, fs, "/out")
    except VfsError:
        return None
    return names, written, snapshot(fs)


def read_oracle(blob):
    try:
        with tarfile.open(fileobj=io.BytesIO(blob), mode="r:*") as tar:
            names = tar.getnames()
        fs = VirtualFileSystem()
        fs.makedirs("/out")
        written = oracle_unpack(blob, fs, "/out")
    except (tarfile.TarError, VfsError):
        return None
    return names, written, snapshot(fs)


def same_as_tarfile(raw, compress=False):
    blob = bz2.compress(raw) if compress else raw
    ours = read_ours(blob)
    assert ours == read_oracle(blob)
    return ours


name_segments = st.text(alphabet="abcxyz_-.é", min_size=1, max_size=40).filter(
    lambda s: s not in (".", ".."))
rest_of_name = st.lists(name_segments, max_size=6)
foreign_entries = st.one_of(
    st.tuples(st.just("file"), rest_of_name, st.binary(max_size=1500),
              st.booleans(), st.sampled_from([None, "pax_size", "base256"])),
    st.tuples(st.just("dir"), rest_of_name),
    st.tuples(st.just("link"), rest_of_name,
              st.sampled_from([tarfile.SYMTYPE, tarfile.LNKTYPE]),
              st.text(alphabet="ab/é", max_size=150)),
    st.tuples(st.just("device"), rest_of_name,
              st.sampled_from([tarfile.CHRTYPE, tarfile.BLKTYPE,
                               tarfile.FIFOTYPE])),
    st.tuples(st.just("global"), st.dictionaries(
        st.sampled_from(["comment", "mtime", "uname"]),
        st.text(alphabet="ab 19é", max_size=20), min_size=1)),
)
pax_damages = st.tuples(st.just("pax"), st.tuples(st.integers(0, 20), st.lists(
    st.tuples(st.integers(0, 600), st.sampled_from(b"0159 =\n\0a")),
    min_size=1, max_size=4)))
damages = st.one_of(
    st.tuples(st.just("none"), st.none()),
    st.tuples(st.just("trailing"), st.binary(min_size=1, max_size=1200)),
    st.tuples(st.just("unterminated"), st.binary(max_size=1200)),
    st.tuples(st.just("checksum"), st.integers(0, 20)),
    pax_damages,
)


class TestForeignArchives:
    @settings(max_examples=150)
    @given(entries=st.lists(foreign_entries, max_size=6),
           fmt=st.sampled_from(sorted(FORMATS)), how=damages,
           compress=st.booleans())
    def test_reader_agrees_with_tarfile(self, entries, fmt, how, compress):
        self.check(entries, fmt, how, compress)

    @settings(max_examples=100)
    @given(entries=st.lists(foreign_entries, min_size=1, max_size=4),
           how=pax_damages)
    def test_damaged_pax_payloads(self, entries, how):
        self.check([("global", {"comment": "c"}), *entries], "pax", how)

    @staticmethod
    def check(entries, fmt, how, compress=False):
        raw, starts = assemble(entries, fmt)
        damaged = damage(raw, starts, how)
        cut = first_misframed(damaged, starts)
        if cut is None:
            same_as_tarfile(damaged, compress)
            return
        # A ``tarfile`` without the fix may read past a misframed record;
        # the fixed one ends the archive there, or refuses it if first.
        blob = bz2.compress(damaged) if compress else damaged
        assert read_ours(blob) == (
            None if cut == 0 else read_oracle(damaged[:cut] + bytes(1024)))

    def test_gnu_long_names_and_links(self):
        entries = [("file", ["n" * 120], b"long", False, None),
                   ("link", ["l" * 110], tarfile.SYMTYPE, "t" * 130)]
        raw, _ = assemble(entries, "gnu")
        assert b"././@LongLink" in raw
        names, written, _ = same_as_tarfile(raw + bytes(1024))
        assert names == ["m0/" + "n" * 120, "m1/" + "l" * 110]
        assert written == ["/out/m0/" + "n" * 120]

    def test_ustar_prefix_split(self):
        rest = ["p" * 60, "q" * 60, "file.cu"]
        raw, _ = assemble([("file", rest, b"x", True, None)], "ustar")
        assert raw[345:345 + 4] == b"m0/p"       # the prefix field
        names, _, (files, _) = same_as_tarfile(raw + bytes(1024))
        assert names == ["/".join(["m0", *rest])]
        assert files["/out/" + names[0]] == (b"x", True)

    @pytest.mark.parametrize("trick", ["pax_size", "base256"])
    def test_size_from_pax_record_or_base_256(self, trick):
        data = bytes(range(256)) * 3
        raw, _ = assemble([("file", ["a"], data, False, trick),
                           ("file", ["b"], b"next", False, None)], "gnu")
        _, _, (files, _) = same_as_tarfile(raw + bytes(1024), compress=True)
        assert files == {"/out/m0/a": (data, False),
                         "/out/m1/b": (b"next", False)}

    def test_global_headers_are_not_members(self):
        entries = [("global", {"comment": "hi"}),
                   ("file", [], b"1", False, None),
                   ("global", {"mtime": "7"}),
                   ("dir", ["d"])]
        raw, _ = assemble(entries, "pax")
        names, _, _ = same_as_tarfile(raw + bytes(1024))
        assert names == ["m1", "m3/d"]

    def test_links_and_devices_are_listed_but_dropped(self):
        entries = [("link", ["s"], tarfile.SYMTYPE, "/etc/passwd"),
                   ("link", ["h"], tarfile.LNKTYPE, "m0/s"),
                   ("device", ["c"], tarfile.CHRTYPE),
                   ("device", ["f"], tarfile.FIFOTYPE)]
        raw, _ = assemble(entries, "ustar")
        names, written, (files, dirs) = same_as_tarfile(raw + bytes(1024))
        assert names == ["m0/s", "m1/h", "m2/c", "m3/f"]
        assert written == [] and files == {} and dirs == ["/", "/out"]

    def test_bytes_after_the_end_blocks_are_ignored(self):
        raw, _ = assemble([("file", [], b"a", False, None)], "pax")
        names, _, _ = same_as_tarfile(raw + bytes(1024) + b"junk" * 300)
        assert names == ["m0"]

    def test_bad_checksum_first_is_fatal_later_ends_the_archive(self):
        raw, starts = assemble([("file", [], b"a", False, None),
                                ("file", [], b"b", False, None)], "ustar")
        assert same_as_tarfile(damage(raw, starts, ("checksum", 0))) is None
        with pytest.raises(VfsError):
            unpack_tree(damage(raw, starts, ("checksum", 0)),
                        VirtualFileSystem(), "/")
        names, _, _ = same_as_tarfile(damage(raw, starts, ("checksum", 1)))
        assert names == ["m0"]

    def test_misframed_pax_record_is_refused(self):
        # The length claims one byte past the record, so the byte that
        # should be its newline is the payload's NUL padding.
        raw = pax_header(b"13 path=abc\n") + tarfile.TarInfo("a").tobuf()
        assert misframed(b"13 path=abc\n" + bytes(500))
        for blob in (raw + bytes(1024), bz2.compress(raw + bytes(1024))):
            assert read_ours(blob) is None
            with pytest.raises(VfsError):
                unpack_tree(blob, VirtualFileSystem(), "/")
        later = tarfile.TarInfo("b").tobuf() + raw + bytes(1024)
        assert read_ours(later)[0] == ["b"]

    def test_digit_run_pax_payload_is_refused_quickly(self):
        # Megabytes of one digit compress to a few hundred bytes; a length
        # scan that is not bounded would take hours over them.
        blob = bz2.compress(pax_header(b"1" * (4 << 20)) + bytes(1024))
        assert len(blob) < 1000
        began = time.perf_counter()
        for read in (archive_member_names,
                     lambda blob: unpack_tree(blob, VirtualFileSystem(), "/")):
            with pytest.raises(VfsError):
                read(blob)
        assert time.perf_counter() - began < 5.0

    def test_undecodable_hdrcharset_is_one_more_record(self):
        # The fixed ``tarfile`` reads it so: only ``BINARY`` changes how a
        # path decodes, and an undecodable one falls back to raw bytes.
        raw = (pax_header(b"17 hdrcharset=\xff\xfe\n13 path=caf\xe9\n")
               + tarfile.TarInfo("plain").tobuf() + bytes(1024))
        fs = VirtualFileSystem()
        assert archive_member_names(raw) == ["caf\udce9"]
        assert unpack_tree(raw, fs, "/") == ["/caf\udce9"]
