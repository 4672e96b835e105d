"""A resubmission's pack and unpack cost what changed — pinned by count.

The archive codec memoises tar headers on ``(name, size, int mtime, mode,
is-dir)``, parsed headers on the 512-byte block, and bz2 streams on the
raw tar; the path algebra memoises ``normalize``/``split_parts``.  All are
checked through what they *did* (``cache_info()`` misses, object
identity), which repeats exactly on any machine.  The codec is its own:
nothing under ``src/repro`` imports ``tarfile``, and a whole submission
runs with ``tarfile``'s classes booby-trapped.
"""

import ast
import pathlib
import tarfile

import pytest

import repro
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.vfs import VirtualFileSystem, archive_member_names, pack_tree, \
    unpack_tree
from repro.vfs.archive import _compress, _header, _parse_header
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


def test_reunpacking_after_one_edit_parses_one_header_block():
    now = [10.0]
    fs = VirtualFileSystem(clock=lambda: now[0])
    for i in range(50):
        fs.write_file(f"/src/layer{i:02d}.cu", f"// layer {i}\n" * (i + 1))
    _parse_header.cache_clear()
    unpack_tree(pack_tree(fs, "/", compression="none"), VirtualFileSystem())
    assert _parse_header.cache_info().misses == 51      # 50 files + /src

    now[0] = 75.0
    fs.write_file("/src/layer07.cu", "// rewritten\n")
    before = _parse_header.cache_info()
    out = VirtualFileSystem()
    unpack_tree(pack_tree(fs, "/", compression="none"), out)
    after = _parse_header.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 50
    assert out.read_text("/src/layer07.cu") == "// rewritten\n"


def test_a_repeated_empty_build_tree_compresses_once():
    fs = VirtualFileSystem(clock=lambda: 42.0)
    fs.makedirs("/build")
    _compress.cache_clear()
    first = pack_tree(fs, "/build")
    assert pack_tree(fs, "/build") == first
    assert _compress.cache_info().misses == 1
    assert _compress.cache_info().hits == 1
    assert archive_member_names(first) == []


def test_header_memo_is_bounded():
    assert 0 < _header.cache_info().maxsize <= 2048


@pytest.mark.parametrize("memo", [_parse_header, _compress])
def test_read_and_compress_memos_are_bounded(memo):
    assert 0 < memo.cache_info().maxsize <= 2048


def test_nothing_in_the_package_imports_tarfile():
    offenders = []
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "tarfile" for name in names):
                offenders.append(f"{path}:{node.lineno}")
    assert offenders == []


def test_a_submission_runs_with_tarfile_booby_trapped(monkeypatch):
    class Trap:
        def __init__(self, *args, **kwargs):
            raise AssertionError("tarfile used")

    for name in ("TarFile", "TarInfo", "open"):
        monkeypatch.setattr(tarfile, name, Trap)
    system = RaiSystem.standard(num_workers=1, seed=3)
    client = system.new_client(team="t")
    client.stage_project({
        "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
        "CMakeLists.txt": "add_executable(ece408 main.cu)\n"})
    result = system.run(client.submit())
    assert result.status is JobStatus.SUCCEEDED
    assert "ece408" in " ".join(archive_member_names(
        client.download_build(result)))


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
