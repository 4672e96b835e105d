"""Additional VFS coverage: directory moves, edge shapes."""

import pytest

from repro.errors import FileNotFound
from repro.vfs import VirtualFileSystem


@pytest.fixture
def fs():
    f = VirtualFileSystem()
    f.import_mapping({"d/a.txt": "A", "d/sub/b.txt": "B", "top.txt": "T"})
    return f


class TestMoveDirectory:
    def test_move_tree(self, fs):
        fs.move("/d", "/renamed")
        assert not fs.exists("/d")
        assert fs.read_text("/renamed/a.txt") == "A"
        assert fs.read_text("/renamed/sub/b.txt") == "B"

    def test_move_into_existing_dir(self, fs):
        fs.makedirs("/dest")
        fs.move("/d", "/dest")
        assert fs.read_text("/dest/d/a.txt") == "A"

    def test_move_missing_raises(self, fs):
        with pytest.raises(FileNotFound):
            fs.move("/ghost", "/x")


class TestWalkEdges:
    def test_walk_empty_root(self):
        fs = VirtualFileSystem()
        assert list(fs.walk("/")) == [("/", [], [])]

    def test_iter_files_on_empty_subtree(self, fs):
        fs.makedirs("/hollow")
        assert list(fs.iter_files("/hollow")) == []

    def test_tree_size_of_single_file_parent(self, fs):
        assert fs.tree_size("/d") == 2

    def test_repr(self, fs):
        text = repr(fs)
        assert "3 files" in text


class TestBinaryAndUnicode:
    def test_binary_content(self, fs):
        payload = bytes(range(256))
        fs.write_file("/bin.dat", payload)
        assert fs.read_file("/bin.dat") == payload

    def test_unicode_text_roundtrip(self, fs):
        fs.write_file("/unicode.txt", "héllo wörld ☃")
        assert fs.read_text("/unicode.txt") == "héllo wörld ☃"

    def test_unicode_filenames(self, fs):
        fs.write_file("/données/café.txt", "ok")
        assert fs.read_text("/données/café.txt") == "ok"
        assert "café.txt" in fs.listdir("/données")


class TestExecutableBit:
    def test_default_not_executable(self, fs):
        assert not fs.stat("/top.txt")["executable"]

    def test_copy_preserves_executable(self, fs):
        fs.write_file("/tool", b"#!", executable=True)
        fs.copy("/tool", "/tool2")
        assert fs.stat("/tool2")["executable"]
