"""A resubmission's pack costs what changed — pinned by count, not clock.

The archive codec memoises tar headers on ``(name, size, int mtime, mode,
is-dir)`` and the path algebra memoises ``normalize``/``split_parts``.
Both are checked through what they *did* (``cache_info()`` misses, object
identity), which repeats exactly on any machine.
"""

import pytest

from repro.vfs import VirtualFileSystem, pack_tree
from repro.vfs.archive import _header
from repro.vfs.path import normalize, split_parts

pytestmark = pytest.mark.perf


def test_repacking_after_one_edit_builds_one_header():
    now = [10.0]
    fs = VirtualFileSystem(clock=lambda: now[0])
    for i in range(50):
        fs.write_file(f"/src/layer{i:02d}.cu", f"// layer {i}\n" * (i + 1))
    _header.cache_clear()
    first = pack_tree(fs, "/", compression="none")
    assert _header.cache_info().misses == 51      # 50 files + /src

    now[0] = 75.0
    fs.write_file("/src/layer07.cu", "// rewritten\n")
    before = _header.cache_info()
    second = pack_tree(fs, "/", compression="none")
    after = _header.cache_info()
    # write_file leaves the directory's mtime alone, so only the edited
    # file's header is new.
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 50
    assert second != first

    assert pack_tree(fs, "/", compression="none") == second
    assert _header.cache_info().misses == after.misses


def test_header_memo_is_bounded():
    assert 0 < _header.cache_info().maxsize <= 2048


@pytest.mark.parametrize("fn", [normalize, split_parts])
def test_path_memo_returns_the_identical_object(fn):
    path = "/".join(["", "build", "objs", "layer07.o"])
    assert fn(path) is fn("/".join(["", "build", "objs", "layer07.o"]))
    assert 0 < fn.cache_info().maxsize <= 2048


@pytest.mark.parametrize("raw, norm, parts", [
    ("/a/../b", "/b", ("b",)),
    ("/../..", "/", ()),
    ("//a///b//", "/a/b", ("a", "b")),
    ("/a/./b/.", "/a/b", ("a", "b")),
    ("a/b", "/a/b", ("a", "b")),
    ("../x", "/x", ("x",)),
    ("", "/", ()),
])
def test_memoised_path_algebra_stays_correct(raw, norm, parts):
    for _ in range(2):      # the second call is served from the memo
        assert normalize(raw) == norm
        assert split_parts(raw) == parts
