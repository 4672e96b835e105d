"""Volume mounts.

The worker "mounts the nvidia-docker CUDA volume onto the container",
mounts the downloaded project at ``/src``, and "creates a /build directory
and sets it to be the user's working directory" (§V, Worker Operations).
A mount brings its tree in one of three ways:

- *shared* — a frozen tree built once per process (the CUDA volume):
  each container mounts a copy stamped with its provision time, as every
  Docker container sees the same volume;
- *handed over* — a tree the caller gives up (the worker's fetched
  project): mounted as it is, no copy, the bind mount's cost;
- *copied in* — a whole filesystem the caller keeps using (the grader
  re-runs one project in several containers): ``graft`` copies its
  directories and shares its immutable files.

Read-only mounts are enforced by the container filesystem, so nothing a
job does reaches back out of its sandbox through a mount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.vfs import DirNode, VirtualFileSystem, tree_of


@dataclass(frozen=True)
class VolumeMount:
    """A host tree projected into the container."""

    container_path: str
    read_only: bool = False
    #: A whole filesystem, copied in.
    source_fs: Optional[VirtualFileSystem] = None
    #: A tree mounted as it is: handed over, or, when ``shared``, frozen
    #: and mounted as a stamped copy.
    tree: Optional[DirNode] = None
    shared: bool = False
    #: Marks the nvidia-docker CUDA volume: grants the container a GPU.
    is_cuda: bool = False

    def attach(self, fs: VirtualFileSystem, now: float) -> None:
        """Mount into the container filesystem ``fs`` at sim time ``now``."""
        if self.source_fs is not None:
            fs.graft(self.source_fs, "/", self.container_path)
        else:
            fs.mount(self.container_path,
                     self.tree.stamped(now) if self.shared else self.tree)
        if self.read_only:
            fs.set_readonly(self.container_path)


#: The nvidia-docker volume: CUDA libraries + the device node marker.
_CUDA_VOLUME = VolumeMount(
    container_path="/usr/local/nvidia",
    read_only=True,
    tree=tree_of({
        "lib64/libcuda.so": b"\x7fELF-cuda-stub",
        "lib64/libcudart.so": b"\x7fELF-cudart-stub",
        "bin/nvidia-smi": b"#!rai-exec nvidia-smi\n{}",
    }),
    shared=True,
    is_cuda=True,
)


def cuda_volume() -> VolumeMount:
    """The nvidia-docker volume (one frozen tree per process)."""
    return _CUDA_VOLUME
