"""The virtual filesystem proper."""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.errors import (
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
    ReadOnlyFilesystem,
)
from repro.vfs.node import DirNode, FileNode
from repro.vfs.path import is_within, normalize, parent_of, split_parts

Node = Union[FileNode, DirNode]


class AccessTrace:
    """What one tracked window of filesystem activity touched.

    ``inputs`` maps each path *read* (or probed) to a content descriptor:

    - ``"file:<sha256>"`` — the file's content digest at read time;
    - ``"tree:<sha256>"`` — digest of the sorted file-name listing under a
      walked directory (enumeration is an input: a command that globs a
      tree must be invalidated when a file is added or removed, even if it
      never reads the newcomer);
    - ``"dir"`` / ``"absent"`` — existence probes (``isfile``/``isdir``/
      ``exists``) and failed reads.

    ``writes`` is the set of paths the window mutated (file writes,
    directory creation, removals, copy/move targets).  A path written
    before it is read is *not* an input — its observed content was the
    window's own intermediate state, not outside state.
    """

    __slots__ = ("inputs", "writes")

    def __init__(self):
        self.inputs: Dict[str, str] = {}
        self.writes: Set[str] = set()

    def note_input(self, path: str, descriptor: str) -> None:
        if path in self.writes:
            return
        existing = self.inputs.get(path)
        if existing is None:
            self.inputs[path] = descriptor
        elif existing == "file" and descriptor.startswith("file:"):
            # A bare existence probe followed by an actual read upgrades to
            # the content digest — the stronger observation wins.
            self.inputs[path] = descriptor
        elif existing == "dir" and descriptor.startswith(("tree:", "list:")):
            self.inputs[path] = descriptor
        elif existing == "list:" and descriptor.startswith("tree:"):
            self.inputs[path] = descriptor

    def note_write(self, path: str) -> None:
        self.writes.add(path)


def descriptor_kind(descriptor: str) -> str:
    """The kind of an input descriptor: its prefix up to and including
    the colon (``"file:"``, ``"tree:"``, ``"list:"``), or the whole bare
    descriptor (``"absent"``, ``"dir"``, ``"file"``)."""
    return descriptor[:descriptor.find(":") + 1] or descriptor


def file_digest(data: bytes) -> str:
    """SHA-256 content digest used by access tracking and build caching."""
    return hashlib.sha256(data).hexdigest()


def tree_signature(top: str, node: DirNode) -> str:
    """Digest of the sorted *file-path* listing under ``node``.

    Names only, no content — editing a file leaves its tree signature
    alone, while adding or removing one changes it.  This is exactly the
    sensitivity a directory enumeration (walk/glob) has.
    """
    names: List[str] = []

    def rec(path: str, dirnode: DirNode) -> None:
        for name in sorted(dirnode.children):
            child = dirnode.children[name]
            cpath = path.rstrip("/") + "/" + name if path != "/" else "/" + name
            if isinstance(child, DirNode):
                rec(cpath, child)
            else:
                names.append(cpath)

    rec(top, node)
    return file_digest("\n".join(names).encode())


def _members(prefix: str, dirnode: DirNode) -> Iterator[Tuple[str, Node]]:
    subdirs, files = [], []
    for name in sorted(dirnode.children):
        child = dirnode.children[name]
        (subdirs if isinstance(child, DirNode) else files).append(
            (prefix + "/" + name, child))
    yield from subdirs
    yield from files
    for path, child in subdirs:
        yield from _members(path, child)


class VirtualFileSystem:
    """An in-memory tree of files and directories.

    Parameters
    ----------
    clock:
        Optional zero-argument callable supplying mtimes (normally the
        simulator's ``lambda: sim.now``); defaults to a constant ``0.0`` so
        that filesystems built outside a simulation stay deterministic.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.root = DirNode()
        self._clock = clock or (lambda: 0.0)
        #: Directory prefixes that reject writes (used for the ``/src``
        #: read-only project mount inside containers).
        self._readonly_prefixes: List[str] = []
        #: Active :class:`AccessTrace`, or ``None`` when not tracking.
        self._trace: Optional[AccessTrace] = None
        #: Tops already folded into a tree signature this window (a
        #: recursive walk must not re-record every subdirectory).
        self._walked: List[str] = []

    # -- access tracking -----------------------------------------------------

    def start_tracking(self) -> AccessTrace:
        """Begin recording reads/probes/writes; returns the live trace."""
        self._trace = AccessTrace()
        self._walked = []
        return self._trace

    def stop_tracking(self) -> Optional[AccessTrace]:
        trace, self._trace = self._trace, None
        self._walked = []
        return trace

    def _note_probe(self, path: str) -> None:
        if self._trace is None:
            return
        path = normalize(path)
        try:
            node = self._resolve(path)
        except (FileNotFound, NotADirectory):
            self._trace.note_input(path, "absent")
            return
        self._trace.note_input(
            path, "dir" if isinstance(node, DirNode) else "file")

    def _note_write(self, path: str) -> None:
        if self._trace is not None:
            self._trace.note_write(normalize(path))

    def _note_tree(self, top: str) -> None:
        """Record a walk of ``top`` as a name-enumeration input."""
        if self._trace is None:
            return
        for prior in self._walked:
            if is_within(top, prior):
                return
        try:
            node = self._resolve_dir(top)
        except (FileNotFound, NotADirectory):
            self._trace.note_input(top, "absent")
            return
        self._walked.append(top)
        self._trace.note_input(top, "tree:" + tree_signature(top, node))

    # -- read-only enforcement ----------------------------------------------

    def set_readonly(self, prefix: str) -> None:
        """Make ``prefix`` and everything beneath it immutable."""
        self._readonly_prefixes.append(normalize(prefix))

    def _check_writable(self, path: str) -> None:
        for prefix in self._readonly_prefixes:
            if is_within(path, prefix):
                raise ReadOnlyFilesystem(f"{path} is read-only (under {prefix})")

    # -- resolution -----------------------------------------------------------

    def _resolve(self, path: str) -> Node:
        node: Node = self.root
        for part in split_parts(path):
            if not isinstance(node, DirNode):
                raise NotADirectory(path)
            try:
                node = node.children[part]
            except KeyError:
                raise FileNotFound(path) from None
        return node

    def _resolve_dir(self, path: str) -> DirNode:
        node = self._resolve(path)
        if not isinstance(node, DirNode):
            raise NotADirectory(path)
        return node

    def _resolve_file(self, path: str) -> FileNode:
        node = self._resolve(path)
        if isinstance(node, DirNode):
            raise IsADirectory(path)
        return node

    # -- queries -----------------------------------------------------------

    def observe(self, path: str, kind: str) -> Optional[str]:
        """The descriptor a tracked access of ``kind`` would record for
        ``path`` right now, or ``None`` when the path's current state
        cannot produce that kind (or the kind is unknown).

        One resolve, never traced: this is how a cache re-checks a
        recorded :class:`AccessTrace` input against the live tree.
        """
        try:
            node = self._resolve(path)
        except (FileNotFound, NotADirectory):
            return "absent" if kind == "absent" else None
        if isinstance(node, FileNode):
            if kind == "file":
                return "file"
            if kind == "file:":
                return "file:" + file_digest(node.data)
        elif kind == "dir":
            return "dir"
        elif kind == "tree:":
            return "tree:" + tree_signature(path, node)
        elif kind == "list:":
            return "list:" + file_digest(
                "\n".join(sorted(node.children)).encode())
        return None

    def exists(self, path: str) -> bool:
        self._note_probe(path)
        try:
            self._resolve(path)
            return True
        except (FileNotFound, NotADirectory):
            return False

    def isfile(self, path: str) -> bool:
        self._note_probe(path)
        try:
            return isinstance(self._resolve(path), FileNode)
        except (FileNotFound, NotADirectory):
            return False

    def isdir(self, path: str) -> bool:
        self._note_probe(path)
        try:
            return isinstance(self._resolve(path), DirNode)
        except (FileNotFound, NotADirectory):
            return False

    def listdir(self, path: str = "/") -> List[str]:
        entries = sorted(self._resolve_dir(path).children)
        if self._trace is not None:
            self._trace.note_input(
                normalize(path),
                "list:" + file_digest("\n".join(entries).encode()))
        return entries

    def read_file(self, path: str) -> bytes:
        if self._trace is None:
            return self._resolve_file(path).data
        npath = normalize(path)
        try:
            data = self._resolve_file(npath).data
        except (FileNotFound, NotADirectory):
            self._trace.note_input(npath, "absent")
            raise
        except IsADirectory:
            self._trace.note_input(npath, "dir")
            raise
        self._trace.note_input(npath, "file:" + file_digest(data))
        return data

    def read_text(self, path: str) -> str:
        return self.read_file(path).decode("utf-8")

    def stat(self, path: str) -> dict:
        self._note_probe(path)
        node = self._resolve(path)
        if isinstance(node, FileNode):
            return {"type": "file", "size": node.size, "mtime": node.mtime,
                    "executable": node.executable}
        return {"type": "dir", "entries": len(node.children), "mtime": node.mtime}

    def walk(self, top: str = "/") -> Iterator[Tuple[str, List[str], List[str]]]:
        """Yield ``(dirpath, dirnames, filenames)`` in sorted order."""
        top = normalize(top)
        self._note_tree(top)
        return self._walk(top)

    def _walk(self, top: str) -> Iterator[Tuple[str, List[str], List[str]]]:
        node = self._resolve_dir(top)
        dirs, files = [], []
        for name in sorted(node.children):
            child = node.children[name]
            (dirs if isinstance(child, DirNode) else files).append(name)
        yield top, dirs, files
        for name in dirs:
            sub = top.rstrip("/") + "/" + name if top != "/" else "/" + name
            yield from self._walk(sub)

    def iter_members(self, top: str = "/") -> Iterator[Tuple[str, Node]]:
        """Yield ``(path, node)`` under ``top`` in archive order: a
        directory's sub-directories, then its files, then each
        sub-directory's members.  Tracked as the walk + stat + read it
        stands for: ``top``'s enumeration, each directory, each content.
        """
        top = normalize(top)
        self._note_tree(top)
        trace = self._trace
        for path, node in _members(top.rstrip("/"), self._resolve_dir(top)):
            if trace is not None:
                trace.note_input(path, "dir" if isinstance(node, DirNode)
                                 else "file:" + file_digest(node.data))
            yield path, node

    def iter_files(self, top: str = "/") -> Iterator[str]:
        """Yield every file path under ``top`` in sorted order."""
        for dirpath, _dirs, files in self.walk(top):
            for name in files:
                yield dirpath.rstrip("/") + "/" + name if dirpath != "/" else "/" + name

    def tree_size(self, top: str = "/") -> int:
        """Total bytes of all files under ``top``."""
        return sum(self._resolve_file(p).size for p in self.iter_files(top))

    def file_count(self) -> int:
        return sum(1 for _ in self.iter_files("/"))

    # -- mutation ------------------------------------------------------------

    def mkdir(self, path: str, parents: bool = False,
              exist_ok: bool = False) -> None:
        path = normalize(path)
        self._check_writable(path)
        parts = split_parts(path)
        if not parts:
            if exist_ok:
                return
            raise FileExists("/")
        node = self.root
        for i, part in enumerate(parts):
            last = i == len(parts) - 1
            child = node.children.get(part)
            if child is None:
                if not last and not parents:
                    raise FileNotFound("/" + "/".join(parts[: i + 1]))
                child = DirNode(mtime=self._clock())
                node.children[part] = child
                self._note_write("/" + "/".join(parts[: i + 1]))
            elif last:
                if isinstance(child, FileNode):
                    raise FileExists(path)
                if not exist_ok:
                    raise FileExists(path)
            elif isinstance(child, FileNode):
                raise NotADirectory("/" + "/".join(parts[: i + 1]))
            node = child  # type: ignore[assignment]

    def makedirs(self, path: str) -> None:
        self.mkdir(path, parents=True, exist_ok=True)

    def write_file(self, path: str, data: Union[bytes, str],
                   executable: bool = False) -> None:
        path = normalize(path)
        self._check_writable(path)
        if isinstance(data, str):
            data = data.encode("utf-8")
        if path == "/":
            raise IsADirectory(path)
        parent = parent_of(path)
        try:
            dirnode = self._resolve_dir(parent)
        except (FileNotFound, NotADirectory):
            self.makedirs(parent)
            dirnode = self._resolve_dir(parent)
        name = split_parts(path)[-1]
        if isinstance(dirnode.children.get(name), DirNode):
            raise IsADirectory(path)
        dirnode.children[name] = FileNode(data, mtime=self._clock(),
                                          executable=executable)
        self._note_write(path)

    def append_file(self, path: str, data: Union[bytes, str]) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8")
        existing = self.read_file(path) if self.isfile(path) else b""
        self.write_file(path, existing + data)

    def remove(self, path: str) -> None:
        """Remove a single file."""
        path = normalize(path)
        self._check_writable(path)
        parent = self._resolve_dir(parent_of(path))
        name = split_parts(path)[-1] if split_parts(path) else None
        if name is None or name not in parent.children:
            raise FileNotFound(path)
        if isinstance(parent.children[name], DirNode):
            raise IsADirectory(path)
        del parent.children[name]
        self._note_write(path)

    def rmtree(self, path: str) -> None:
        """Remove a directory (or file) recursively."""
        path = normalize(path)
        self._check_writable(path)
        parts = split_parts(path)
        if not parts:
            self.root = DirNode(mtime=self._clock())
            self._note_write("/")
            return
        parent = self._resolve_dir(parent_of(path))
        if parts[-1] not in parent.children:
            raise FileNotFound(path)
        del parent.children[parts[-1]]
        self._note_write(path)

    def copy(self, src: str, dst: str) -> None:
        """Copy a file or directory tree (``cp -r`` semantics).

        If ``dst`` is an existing directory, ``src`` is copied *into* it
        under its basename, matching coreutils.
        """
        src, dst = normalize(src), normalize(dst)
        node = self._resolve(src)
        if self.isdir(dst):
            base = split_parts(src)[-1] if split_parts(src) else ""
            if base:
                dst = dst.rstrip("/") + "/" + base if dst != "/" else "/" + base
        self._check_writable(dst)
        if is_within(dst, src) and isinstance(node, DirNode) and dst != src:
            raise FileExists(f"cannot copy {src} into itself: {dst}")
        self._note_probe(src)
        clone = node.clone()
        parent = parent_of(dst)
        self.makedirs(parent)
        name = split_parts(dst)[-1]
        self._resolve_dir(parent).children[name] = clone
        self._note_write(dst)

    def move(self, src: str, dst: str) -> None:
        self.copy(src, dst)
        node = self._resolve(normalize(src))
        if isinstance(node, DirNode):
            self.rmtree(src)
        else:
            self.remove(src)

    # -- tree import/export ----------------------------------------------------

    def import_mapping(self, mapping: dict, base: str = "/") -> None:
        """Write ``{relative_path: content}`` under ``base``.

        A trailing ``/`` in a key creates an empty directory.
        """
        base = normalize(base)
        self.makedirs(base)
        for rel, content in mapping.items():
            target = base.rstrip("/") + "/" + rel.lstrip("/") if base != "/" \
                else "/" + rel.lstrip("/")
            if rel.endswith("/"):
                self.makedirs(target)
            else:
                self.write_file(target, content)

    def export_mapping(self, top: str = "/") -> dict:
        """Return ``{path_relative_to_top: bytes}`` for every file."""
        top = normalize(top)
        out = {}
        prefix_len = len(top.rstrip("/")) + 1 if top != "/" else 1
        for path in self.iter_files(top):
            out[path[prefix_len:]] = self.read_file(path)
        return out

    def graft(self, other: "VirtualFileSystem", src: str, dst: str) -> None:
        """Mount ``other:src`` under ``self:dst`` by copy: directories are
        copied, the immutable file nodes shared."""
        node = other._resolve(normalize(src))
        self._check_writable(normalize(dst))
        self.makedirs(parent_of(normalize(dst)))
        parts = split_parts(dst)
        if not parts:
            if not isinstance(node, DirNode):
                raise NotADirectory(dst)
            self.root = node.clone()
            self._note_write("/")
            return
        parent = self._resolve_dir(parent_of(normalize(dst)))
        parent.children[parts[-1]] = node.clone()
        self._note_write(normalize(dst))

    def __repr__(self):
        return f"<VirtualFileSystem {self.file_count()} files, {self.tree_size()}B>"
