"""Unit tests for the virtual filesystem."""

import pytest

from repro.errors import (
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
    ReadOnlyFilesystem,
)
from repro.vfs import VirtualFileSystem


@pytest.fixture
def fs():
    return VirtualFileSystem()


class TestBasicIO:
    def test_write_and_read(self, fs):
        fs.write_file("/a.txt", "hello")
        assert fs.read_text("/a.txt") == "hello"
        assert fs.read_file("/a.txt") == b"hello"

    def test_write_creates_parents(self, fs):
        fs.write_file("/deep/nested/file", b"x")
        assert fs.isdir("/deep/nested")

    def test_overwrite_replaces(self, fs):
        fs.write_file("/f", "one")
        fs.write_file("/f", "two")
        assert fs.read_text("/f") == "two"

    def test_read_missing_raises(self, fs):
        with pytest.raises(FileNotFound):
            fs.read_file("/missing")

    def test_read_dir_raises(self, fs):
        fs.makedirs("/d")
        with pytest.raises(IsADirectory):
            fs.read_file("/d")

    def test_write_over_dir_raises(self, fs):
        fs.makedirs("/d")
        with pytest.raises(IsADirectory):
            fs.write_file("/d", b"x")

    def test_append(self, fs):
        fs.write_file("/log", "a")
        fs.append_file("/log", "b")
        assert fs.read_text("/log") == "ab"

    def test_append_creates(self, fs):
        fs.append_file("/new", "x")
        assert fs.read_text("/new") == "x"


class TestDirectories:
    def test_mkdir(self, fs):
        fs.mkdir("/d")
        assert fs.isdir("/d")

    def test_mkdir_existing_raises(self, fs):
        fs.mkdir("/d")
        with pytest.raises(FileExists):
            fs.mkdir("/d")

    def test_mkdir_exist_ok(self, fs):
        fs.mkdir("/d")
        fs.mkdir("/d", exist_ok=True)

    def test_mkdir_needs_parents(self, fs):
        with pytest.raises(FileNotFound):
            fs.mkdir("/a/b")
        fs.mkdir("/a/b", parents=True)
        assert fs.isdir("/a/b")

    def test_listdir_sorted(self, fs):
        for name in ("c", "a", "b"):
            fs.write_file(f"/{name}", b"")
        assert fs.listdir("/") == ["a", "b", "c"]

    def test_listdir_file_raises(self, fs):
        fs.write_file("/f", b"")
        with pytest.raises(NotADirectory):
            fs.listdir("/f")

    def test_walk_order(self, fs):
        fs.import_mapping({"b/x": "1", "a/y": "2", "top": "3"})
        walked = list(fs.walk("/"))
        assert walked[0] == ("/", ["a", "b"], ["top"])
        assert walked[1][0] == "/a"
        assert walked[2][0] == "/b"

    def test_iter_files(self, fs):
        fs.import_mapping({"a/1": "x", "b/2": "y"})
        assert list(fs.iter_files("/")) == ["/a/1", "/b/2"]

    def test_tree_size_and_count(self, fs):
        fs.write_file("/a", b"12345")
        fs.write_file("/d/b", b"123")
        assert fs.tree_size("/") == 8
        assert fs.file_count() == 2


class TestRemoval:
    def test_remove_file(self, fs):
        fs.write_file("/f", b"")
        fs.remove("/f")
        assert not fs.exists("/f")

    def test_remove_missing_raises(self, fs):
        with pytest.raises(FileNotFound):
            fs.remove("/nope")

    def test_remove_dir_raises(self, fs):
        fs.makedirs("/d")
        with pytest.raises(IsADirectory):
            fs.remove("/d")

    def test_rmtree(self, fs):
        fs.import_mapping({"d/a": "1", "d/sub/b": "2"})
        fs.rmtree("/d")
        assert not fs.exists("/d")

    def test_rmtree_root_resets(self, fs):
        fs.write_file("/x", b"")
        fs.rmtree("/")
        assert fs.file_count() == 0


class TestCopyMove:
    def test_copy_file(self, fs):
        fs.write_file("/src.txt", "data")
        fs.copy("/src.txt", "/dst.txt")
        assert fs.read_text("/dst.txt") == "data"
        assert fs.exists("/src.txt")

    def test_copy_tree(self, fs):
        fs.import_mapping({"src/a": "1", "src/sub/b": "2"})
        fs.copy("/src", "/dst")
        assert fs.read_text("/dst/a") == "1"
        assert fs.read_text("/dst/sub/b") == "2"

    def test_copy_into_existing_dir_uses_basename(self, fs):
        """cp -r /src /build puts it at /build/src (coreutils rule)."""
        fs.import_mapping({"src/a": "1"})
        fs.makedirs("/build")
        fs.copy("/src", "/build")
        assert fs.read_text("/build/src/a") == "1"

    def test_copy_dir_into_itself_rejected(self, fs):
        fs.import_mapping({"d/a": "1"})
        with pytest.raises(FileExists):
            fs.copy("/d", "/d/inner")

    def test_copy_is_deep(self, fs):
        fs.write_file("/a", "orig")
        fs.copy("/a", "/b")
        fs.write_file("/a", "changed")
        assert fs.read_text("/b") == "orig"

    def test_move(self, fs):
        fs.write_file("/a", "data")
        fs.move("/a", "/b")
        assert not fs.exists("/a")
        assert fs.read_text("/b") == "data"


class TestReadOnly:
    def test_readonly_blocks_writes(self, fs):
        fs.import_mapping({"src/main.cu": "code"})
        fs.set_readonly("/src")
        with pytest.raises(ReadOnlyFilesystem):
            fs.write_file("/src/other", b"x")
        with pytest.raises(ReadOnlyFilesystem):
            fs.remove("/src/main.cu")
        with pytest.raises(ReadOnlyFilesystem):
            fs.rmtree("/src")

    def test_readonly_allows_reads(self, fs):
        fs.import_mapping({"src/main.cu": "code"})
        fs.set_readonly("/src")
        assert fs.read_text("/src/main.cu") == "code"

    def test_writes_outside_prefix_ok(self, fs):
        fs.set_readonly("/src")
        fs.write_file("/build/out", b"fine")


class TestImportExport:
    def test_mapping_roundtrip(self, fs):
        mapping = {"a.txt": b"1", "d/b.txt": b"2"}
        fs.import_mapping({"proj/" + rel: data
                           for rel, data in mapping.items()})
        assert fs.export_mapping("/proj") == mapping

    def test_trailing_slash_creates_dir(self, fs):
        fs.import_mapping({"empty/": ""})
        assert fs.isdir("/empty")

    def test_graft_between_filesystems(self, fs):
        other = VirtualFileSystem()
        other.import_mapping({"x/y": "deep"})
        fs.graft(other, "/x", "/mounted")
        assert fs.read_text("/mounted/y") == "deep"
        # deep copy: mutating the source does not affect the graft
        other.write_file("/x/y", "changed")
        assert fs.read_text("/mounted/y") == "deep"

    def test_stat(self, fs):
        fs.write_file("/f", b"12345", executable=True)
        st = fs.stat("/f")
        assert st["type"] == "file"
        assert st["size"] == 5
        assert st["executable"]
        fs.makedirs("/d")
        assert fs.stat("/d")["type"] == "dir"

    def test_clock_stamps_mtime(self):
        now = [0.0]
        fs = VirtualFileSystem(clock=lambda: now[0])
        fs.write_file("/a", b"")
        now[0] = 42.0
        fs.write_file("/b", b"")
        assert fs.stat("/a")["mtime"] == 0.0
        assert fs.stat("/b")["mtime"] == 42.0
