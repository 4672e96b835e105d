"""Provisioning from frozen trees builds what writing every file did.

A container's filesystem is one stamped copy of its image's frozen tree,
``/build`` and ``/tmp``, then its mounts: a shared frozen tree (the CUDA
volume) as a stamped copy, a handed-over tree (the worker's fetched
project) as it is, a whole filesystem (the grader's project) copied in
by ``graft``.  :func:`written_fs` keeps the path it replaced, here only,
as the oracle: ``import_mapping`` of the image template at ``/``, each
mapping mount imported under its path, each project grafted.  Over
generated templates, mounts, projects and clocks both give the same
tree: paths, bytes, file and directory mtimes, exec bits, and read-only
prefixes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container.container import Container
from repro.container.image import Image
from repro.container.limits import ResourceLimits
from repro.container.volumes import VolumeMount, cuda_volume
from repro.vfs import DirNode, VirtualFileSystem, pack_tree, tree_of, \
    unpack_tree

names = st.text(alphabet="abcdefgh0123", min_size=1, max_size=5)
rel_paths = st.lists(names, min_size=1, max_size=3).map("/".join)
bodies = st.binary(max_size=64)


def _prefix_free(tree: dict) -> bool:
    """No path is twice in ``tree``, or a directory-prefix of another."""
    keys = sorted(k.rstrip("/") for k in tree)
    return not any(b == a or b.startswith(a + "/")
                   for a, b in zip(keys, keys[1:]))


#: Image templates: files, and empty directories (a trailing ``/``).
templates = st.dictionaries(
    st.one_of(rel_paths, rel_paths.map(lambda p: p + "/")), bodies,
    max_size=6).filter(_prefix_free)
#: Mapping mounts live under upper-case tops, apart from the template's
#: lower-case names (a mount shadows what the image has at its path).
mount_paths = st.lists(st.sampled_from("MNOP"), min_size=1, max_size=3,
                       unique=True)
mapping_mounts = st.lists(
    st.tuples(st.lists(st.text(alphabet="XYZ", min_size=1, max_size=2),
                       max_size=2),
              templates, st.booleans()),
    max_size=2)
projects = st.one_of(st.none(), templates)
clocks = st.floats(0.0, 1e5, allow_nan=False)


def _import_under(fs: VirtualFileSystem, mapping: dict, base: str) -> None:
    """The import the old provisioning ran per file, at any base."""
    fs.makedirs(base)
    for rel, content in mapping.items():
        target = base.rstrip("/") + "/" + rel.lstrip("/")
        if rel.endswith("/"):
            fs.makedirs(target)
        else:
            fs.write_file(target, content)


def written_fs(template, mounts, now) -> VirtualFileSystem:
    """The replaced path: every file of the image and of each mapping
    mount written, every project grafted, at ``now``."""
    fs = VirtualFileSystem(clock=lambda: now)
    if template:
        _import_under(fs, template, "/")
    fs.makedirs("/build")
    fs.makedirs("/tmp")
    for path, kind, source, read_only in mounts:
        fs.makedirs(path)
        if kind == "files":
            _import_under(fs, source, path)
        else:
            fs.graft(source, "/", path)
        if read_only:
            fs.set_readonly(path)
    return fs


def facts(fs: VirtualFileSystem) -> tuple:
    """Everything a job can observe of a tree."""
    nodes = {}

    def rec(path: str, node) -> None:
        if isinstance(node, DirNode):
            nodes[path] = ("dir", node.mtime)
            for name, child in node.children.items():
                rec(path.rstrip("/") + "/" + name, child)
        else:
            nodes[path] = ("file", node.data, node.mtime, node.executable)

    rec("/", fs.root)
    return nodes, list(fs._readonly_prefixes)


def _project(template: dict, fetched_at: float) -> VirtualFileSystem:
    """A project as the worker fetches it: unpacked from its tar at
    ``fetched_at`` into a fresh tree."""
    staged = VirtualFileSystem()
    staged.import_mapping(template)
    for path in list(staged.iter_files("/"))[:1]:
        staged.write_file(path, staged.read_file(path), executable=True)
    fetched = VirtualFileSystem(clock=lambda: fetched_at)
    unpack_tree(pack_tree(staged, "/", compression="none"), fetched, "/")
    return fetched


@settings(max_examples=120)
@given(template=templates, tops=mount_paths, mapped=mapping_mounts,
       project=projects, copied=st.booleans(), with_cuda=st.booleans(),
       now=clocks, recycle_at=st.one_of(st.none(), clocks))
def test_frozen_provisioning_builds_the_written_tree(
        template, tops, mapped, project, copied, with_cuda, now,
        recycle_at):
    old_mounts, new_mounts = [], []
    if project is not None:
        fetched = _project(project, fetched_at=now / 2)
        old_mounts.append(("/src", "fs", fetched, True))
        new_mounts.append(
            VolumeMount("/src", read_only=True, source_fs=fetched) if copied
            else VolumeMount("/src", read_only=True, tree=fetched.root))
    for top, (sub, files, read_only) in zip(tops, mapped):
        path = "/" + "/".join([top] + sub)
        old_mounts.append((path, "files", files, read_only))
        new_mounts.append(VolumeMount(path, read_only=read_only,
                                      tree=tree_of(files), shared=True))
    if with_cuda:
        cuda = cuda_volume()
        old_mounts.append((cuda.container_path, "files", {
            "lib64/libcuda.so": b"\x7fELF-cuda-stub",
            "lib64/libcudart.so": b"\x7fELF-cudart-stub",
            "bin/nvidia-smi": b"#!rai-exec nvidia-smi\n{}",
        }, True))
        new_mounts.append(cuda)

    clock = [now if recycle_at is None else recycle_at / 3]
    image = Image(name="img", size_bytes=1, fs_template=template)
    container = Container(image, ResourceLimits(),
                          [] if recycle_at is not None else new_mounts,
                          clock=lambda: clock[0])
    if recycle_at is not None:
        # A warm recycle provisions again, later, from the same frozen
        # trees (the image's and the volume's are shared, never mounted).
        container.scrub()
        clock[0] = now
        container.recycle(ResourceLimits(), new_mounts)
    assert facts(container.fs) == facts(written_fs(template, old_mounts,
                                                   now))


@settings(max_examples=40)
@given(template=templates, first=clocks, second=clocks)
def test_containers_of_one_image_share_no_directory(template, first,
                                                    second):
    """Two containers of one image stamp their own copies: a write in
    one is not seen by the other, nor by the image's frozen tree."""
    image = Image(name="img", size_bytes=1, fs_template=template)
    frozen = facts_of_tree(image.tree())
    a = Container(image, ResourceLimits(), [cuda_volume()],
                  clock=lambda: first)
    b = Container(image, ResourceLimits(), [cuda_volume()],
                  clock=lambda: second)
    before = facts(b.fs)
    for top, node in list(a.fs.root.children.items()):
        if isinstance(node, DirNode):
            a.fs.write_file(f"/{top}/new-file", b"x")
    a.fs.rmtree("/build")
    assert facts(b.fs) == before
    assert facts_of_tree(image.tree()) == frozen


def facts_of_tree(node: DirNode) -> tuple:
    fs = VirtualFileSystem()
    fs.root = node
    return facts(fs)
