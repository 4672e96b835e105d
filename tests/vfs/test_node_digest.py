"""A file node hashes its content at most once in its life.

Nodes are immutable, so the SHA-256 a node is first asked for stays
true: ``FileNode.digest`` remembers it, a stamped copy carries it over,
and every reader of a file's digest (``file_digests``, ``observe``,
tracked reads and walks) goes through the node.
"""

import pytest

import repro.vfs.node as node_module
from repro.vfs import DirNode, FileNode, VirtualFileSystem, file_digest


@pytest.fixture
def hashes(monkeypatch):
    calls = []
    digest = node_module.file_digest

    def counting(data):
        calls.append(data)
        return digest(data)

    monkeypatch.setattr(node_module, "file_digest", counting)
    return calls


def test_a_node_hashes_once_and_a_stamped_copy_inherits(hashes):
    node = FileNode(b"kernel", mtime=1.0, executable=True)
    assert node.digest == file_digest(b"kernel")
    assert node.digest == file_digest(b"kernel")
    copy = node.stamped(7.0)
    assert (copy.data, copy.mtime, copy.executable) == (b"kernel", 7.0, True)
    assert copy.digest == node.digest
    assert hashes == [b"kernel"]
    with pytest.raises(AttributeError):
        node._digest = "forged"


def test_a_stamped_tree_is_a_private_copy_at_one_instant():
    tree = DirNode(3.0)
    sub = tree.children["d"] = DirNode(4.0)
    sub.children["f"] = FileNode(b"x", mtime=5.0)
    copy = tree.stamped(9.0)
    assert copy is not tree and copy.children["d"] is not sub
    assert (copy.mtime, copy.children["d"].mtime,
            copy.children["d"].children["f"].mtime) == (9.0, 9.0, 9.0)
    assert (tree.mtime, sub.mtime, sub.children["f"].mtime) == \
        (3.0, 4.0, 5.0)


def test_every_digest_reader_reuses_the_node(hashes):
    fs = VirtualFileSystem()
    fs.import_mapping({"b/x.cu": b"x", "a.h": b"a", "b/c/y": b"y"})
    digests = fs.file_digests()
    assert digests == {path: file_digest(fs.read_file(path))
                       for path in fs.iter_files("/")}
    assert list(digests) == list(fs.iter_files("/"))
    assert len(hashes) == 3
    assert fs.observe("/b/x.cu", "file:") == "file:" + digests["/b/x.cu"]
    trace = fs.start_tracking()
    fs.read_file("/a.h")
    list(fs.iter_members("/b"))
    fs.stop_tracking()
    assert trace.inputs["/a.h"] == "file:" + digests["/a.h"]
    assert trace.inputs["/b/c/y"] == "file:" + digests["/b/c/y"]
    assert len(hashes) == 3
    fs.write_file("/a.h", b"changed")
    assert fs.file_digests()["/a.h"] == file_digest(b"changed")
    assert len(hashes) == 4


def test_file_digests_is_tracked_as_the_walk_and_reads():
    fs = VirtualFileSystem()
    fs.import_mapping({"src/m.cu": b"m", "top": b"t"})
    trace = fs.start_tracking()
    digests = fs.file_digests()
    fs.stop_tracking()
    reference = fs.start_tracking()
    for path in fs.iter_files("/"):
        fs.stat(path)
        fs.read_file(path)
    fs.stat("/src")
    fs.stop_tracking()
    assert trace.inputs == reference.inputs
    assert digests == {p: d[len("file:"):] for p, d in trace.inputs.items()
                       if d.startswith("file:")}
