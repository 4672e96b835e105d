"""Copies share immutable file nodes and nothing else.

``graft`` (the grader's copied-in ``/src``), ``copy`` and ``DirNode.clone``
copy directories and hand out the *same* ``FileNode`` objects.  That is
safe only while no operation changes a file node in place, so both halves
are pinned here: identity of the shared nodes, and independence of the two
trees under every mutating call.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VfsError
from repro.vfs import DirNode, FileNode, VirtualFileSystem

TREE = {
    "main.cu": "kernel",
    "lib/util.h": "#pragma once",
    "lib/deep/x.bin": bytes(range(64)),
    "empty/": "",
}


def nodes(fs, top):
    """``{relative path: node}`` for everything under ``top``."""
    skip = len(top.rstrip("/"))
    return {path[skip:]: node for path, node in fs.iter_members(top)}


def assert_shares_files_only(a, b):
    assert a.keys() == b.keys()
    for rel, node in a.items():
        if isinstance(node, FileNode):
            assert b[rel] is node, rel
        else:
            assert isinstance(b[rel], DirNode) and b[rel] is not node, rel


class TestIdentity:
    def test_graft_shares_file_nodes_and_copies_directories(self):
        project = VirtualFileSystem()
        project.import_mapping(TREE)
        sandbox = VirtualFileSystem()
        sandbox.graft(project, "/", "/src")
        assert_shares_files_only(nodes(project, "/"), nodes(sandbox, "/src"))
        assert sandbox._resolve("/src") is not project.root

    def test_copy_shares_file_nodes_and_copies_directories(self):
        fs = VirtualFileSystem()
        fs.import_mapping({"a/" + rel: data for rel, data in TREE.items()})
        fs.copy("/a", "/b")
        assert_shares_files_only(nodes(fs, "/a"), nodes(fs, "/b"))

    def test_file_node_rejects_mutation(self):
        node = FileNode(b"data", mtime=3.0, executable=True)
        for attr, value in (("data", b"other"), ("mtime", 4.0),
                            ("executable", False)):
            with pytest.raises(AttributeError):
                setattr(node, attr, value)
            with pytest.raises(AttributeError):
                delattr(node, attr)
        assert (node.data, node.mtime, node.executable) == (b"data", 3.0, True)
        assert node.clone() is node


rel_paths = st.sampled_from(
    ["main.cu", "lib/util.h", "lib/deep/x.bin", "lib", "lib/deep", "empty",
     "new.txt", "lib/new.h", "empty/made.o"])
mutations = st.one_of(
    st.tuples(st.just("write_file"), rel_paths, st.binary(max_size=12)),
    st.tuples(st.just("append_file"), rel_paths, st.binary(max_size=12)),
    st.tuples(st.just("remove"), rel_paths),
    st.tuples(st.just("rmtree"), rel_paths),
)


def mutate(fs, base, script):
    for op, rel, *args in script:
        try:
            getattr(fs, op)(base + "/" + rel, *args)
        except VfsError:
            pass  # e.g. remove of a directory, write over one


class TestIndependence:
    @settings(max_examples=80)
    @given(script=st.lists(mutations, min_size=1, max_size=6),
           on_copy=st.booleans())
    def test_graft_sides_do_not_see_each_other(self, script, on_copy):
        project = VirtualFileSystem()
        project.import_mapping(TREE)
        sandbox = VirtualFileSystem()
        sandbox.graft(project, "/", "/src")
        before = project.export_mapping("/")
        if on_copy:
            mutate(sandbox, "/src", script)
            assert project.export_mapping("/") == before
        else:
            mutate(project, "", script)
            assert sandbox.export_mapping("/src") == before

    @settings(max_examples=80)
    @given(script=st.lists(mutations, min_size=1, max_size=6),
           on_copy=st.booleans())
    def test_copy_sides_do_not_see_each_other(self, script, on_copy):
        fs = VirtualFileSystem()
        fs.import_mapping({"a/" + rel: data for rel, data in TREE.items()})
        fs.copy("/a", "/b")
        before = fs.export_mapping("/a")
        touched, other = ("/b", "/a") if on_copy else ("/a", "/b")
        mutate(fs, touched, script)
        assert fs.export_mapping(other) == before
