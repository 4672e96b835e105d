"""Unit tests for tar.bz2 archiving."""

import bz2
import gzip
import io
import tarfile

import pytest

from repro.errors import VfsError
from repro.vfs import (
    VirtualFileSystem,
    archive_member_names,
    pack_tree,
    unpack_tree,
)


@pytest.fixture
def project_fs():
    fs = VirtualFileSystem()
    fs.import_mapping({
        "main.cu": "__global__ void k(){}",
        "data/weights.bin": bytes(range(256)),
        "empty/": "",
        "USAGE": "how to run",
    })
    return fs


class TestRoundTrip:
    def test_full_roundtrip(self, project_fs):
        blob = pack_tree(project_fs, "/")
        out = VirtualFileSystem()
        unpack_tree(blob, out, "/restored")
        assert out.read_text("/restored/main.cu") == "__global__ void k(){}"
        assert out.read_file("/restored/data/weights.bin") == bytes(range(256))
        assert out.isdir("/restored/empty")

    def test_subtree_pack(self, project_fs):
        blob = pack_tree(project_fs, "/data")
        out = VirtualFileSystem()
        unpack_tree(blob, out, "/")
        assert out.read_file("/weights.bin") == bytes(range(256))
        assert not out.exists("/main.cu")

    def test_executable_bit_survives(self):
        fs = VirtualFileSystem()
        fs.write_file("/bin/tool", b"#!x", executable=True)
        out = VirtualFileSystem()
        unpack_tree(pack_tree(fs, "/"), out, "/")
        assert out.stat("/bin/tool")["executable"]

    def test_archive_is_real_tarball(self, project_fs):
        """External tooling must be able to read what we produce."""
        blob = pack_tree(project_fs, "/")
        with tarfile.open(fileobj=io.BytesIO(blob), mode="r:bz2") as tar:
            names = tar.getnames()
        assert "main.cu" in names
        assert "data/weights.bin" in names

    def test_uncompressed_mode(self, project_fs):
        blob = pack_tree(project_fs, "/", compression="none")
        out = VirtualFileSystem()
        unpack_tree(blob, out, "/")
        assert out.read_text("/USAGE") == "how to run"


class TestSafety:
    def test_traversal_members_are_contained(self):
        """A malicious ../../ member must stay under the destination."""
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w:bz2") as tar:
            info = tarfile.TarInfo("../../etc/passwd")
            data = b"pwned"
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
        fs = VirtualFileSystem()
        unpack_tree(buf.getvalue(), fs, "/sandbox")
        assert fs.isfile("/sandbox/etc/passwd")
        assert not fs.exists("/etc/passwd")

    def test_symlinks_are_dropped(self):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w:bz2") as tar:
            link = tarfile.TarInfo("escape")
            link.type = tarfile.SYMTYPE
            link.linkname = "/etc/passwd"
            tar.addfile(link)
        fs = VirtualFileSystem()
        written = unpack_tree(buf.getvalue(), fs, "/")
        assert written == []
        assert not fs.exists("/escape")

    def test_file_member_naming_the_root_is_a_typed_error(self):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tar:
            info = tarfile.TarInfo("a/..")
            info.size = 1
            tar.addfile(info, io.BytesIO(b"x"))
        with pytest.raises(VfsError):
            unpack_tree(buf.getvalue(), VirtualFileSystem(), "/")

    def test_truncated_archives_raise(self, project_fs):
        plain = pack_tree(project_fs, "/", compression="none")
        cut = plain[:plain.index(b"how to run") + 3]    # mid-member
        for blob in (cut, bz2.compress(cut), pack_tree(project_fs, "/")[:-20]):
            with pytest.raises(VfsError):
                unpack_tree(blob, VirtualFileSystem(), "/")
            with pytest.raises(VfsError):
                archive_member_names(blob)

    def test_gzip_input_is_rejected(self, project_fs):
        plain = pack_tree(project_fs, "/", compression="none")
        with pytest.raises(VfsError):
            unpack_tree(gzip.compress(plain), VirtualFileSystem(), "/")

    def test_plain_tar_headed_by_a_bzh_name_is_not_taken_for_bz2(self):
        fs = VirtualFileSystem()
        fs.write_file("/BZhang_notes.txt", b"hello")
        out = VirtualFileSystem()
        unpack_tree(pack_tree(fs, "/", compression="none"), out, "/")
        assert out.read_file("/BZhang_notes.txt") == b"hello"

    def test_invalid_blob_raises(self):
        with pytest.raises(VfsError):
            unpack_tree(b"not a tarball", VirtualFileSystem(), "/")
        with pytest.raises(VfsError):
            archive_member_names(b"junk")


class TestMemberNames:
    def test_listing_without_extract(self, project_fs):
        names = archive_member_names(pack_tree(project_fs, "/"))
        assert "USAGE" in names
        assert "data/weights.bin" in names


class TestTracking:
    def test_pack_records_what_walk_stat_read_would(self, project_fs):
        """A tracked pack observes the enumeration of ``top``, every
        directory's existence and every file's content — the inputs the
        ``walk`` + ``stat`` + ``read_file`` calls it replaced recorded."""
        project_fs.start_tracking()
        pack_tree(project_fs, "/")
        packed = project_fs.stop_tracking()

        reference = project_fs.start_tracking()
        for dirpath, dirnames, filenames in project_fs.walk("/"):
            for name in dirnames:
                project_fs.stat(dirpath.rstrip("/") + "/" + name)
            for name in filenames:
                project_fs.read_file(dirpath.rstrip("/") + "/" + name)
                project_fs.stat(dirpath.rstrip("/") + "/" + name)
        project_fs.stop_tracking()

        assert list(packed.inputs.items()) == list(reference.inputs.items())
        assert set(packed.inputs) == {
            "/", "/data", "/empty", "/USAGE", "/main.cu",
            "/data/weights.bin"}
        assert packed.inputs["/data"] == "dir"
        assert packed.inputs["/USAGE"].startswith("file:")
        assert packed.inputs["/"].startswith("tree:")
        assert packed.writes == set()
