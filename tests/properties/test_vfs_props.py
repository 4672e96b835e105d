"""Property-based tests for the virtual filesystem and archives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vfs import VirtualFileSystem, pack_tree, unpack_tree
from repro.vfs.path import is_within, join, normalize, split_parts

path_segments = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"),
                           max_codepoint=122),
    min_size=1, max_size=8,
)
rel_paths = st.lists(path_segments, min_size=1, max_size=4).map("/".join)
file_bodies = st.binary(max_size=200)
trees = st.dictionaries(rel_paths, file_bodies, min_size=0, max_size=8)


class TestPathProperties:
    @given(raw=st.text(max_size=40))
    def test_normalize_is_idempotent(self, raw):
        once = normalize(raw)
        assert normalize(once) == once

    @given(raw=st.text(max_size=40))
    def test_normalized_is_absolute_and_clean(self, raw):
        norm = normalize(raw)
        assert norm.startswith("/")
        assert "//" not in norm
        assert ".." not in split_parts(norm)

    @given(base=rel_paths, child=path_segments)
    def test_join_child_is_within_base(self, base, child):
        joined = join("/" + base, child)
        assert is_within(joined, "/" + base)

    @given(path=rel_paths)
    def test_split_then_rejoin(self, path):
        norm = normalize(path)
        assert "/" + "/".join(split_parts(norm)) == norm


def _prefix_free(tree: dict) -> bool:
    """No key is a directory-prefix of another (a path cannot be both a
    file and a directory)."""
    keys = sorted(tree)
    return not any(b.startswith(a + "/") for a, b in zip(keys, keys[1:]))


class TestFilesystemProperties:
    @settings(max_examples=40)
    @given(tree=trees.filter(_prefix_free))
    def test_import_export_roundtrip(self, tree):
        fs = VirtualFileSystem()
        fs.import_mapping(tree, "/proj")
        assert fs.export_mapping("/proj") == tree

    @settings(max_examples=40)
    @given(tree=st.dictionaries(path_segments, file_bodies, max_size=8))
    def test_flat_tree_exact_roundtrip(self, tree):
        fs = VirtualFileSystem()
        fs.import_mapping(tree, "/p")
        assert fs.export_mapping("/p") == tree
        assert fs.file_count() == len(tree)
        assert fs.tree_size("/p") == sum(len(v) for v in tree.values())

    @settings(max_examples=40)
    @given(tree=st.dictionaries(path_segments, file_bodies, max_size=8))
    def test_copy_preserves_content(self, tree):
        fs = VirtualFileSystem()
        fs.import_mapping(tree, "/src")
        fs.copy("/src", "/dst")
        assert fs.export_mapping("/dst") == fs.export_mapping("/src")


class TestArchiveProperties:
    @settings(max_examples=25)
    @given(tree=st.dictionaries(path_segments, file_bodies, max_size=6))
    def test_pack_unpack_roundtrip(self, tree):
        fs = VirtualFileSystem()
        fs.import_mapping(tree, "/")
        blob = pack_tree(fs, "/")
        out = VirtualFileSystem()
        unpack_tree(blob, out, "/")
        assert out.export_mapping("/") == tree

    @settings(max_examples=25)
    @given(tree=st.dictionaries(path_segments, file_bodies,
                                min_size=1, max_size=6))
    def test_pack_deterministic(self, tree):
        fs = VirtualFileSystem()
        fs.import_mapping(tree, "/")
        assert pack_tree(fs, "/") == pack_tree(fs, "/")
