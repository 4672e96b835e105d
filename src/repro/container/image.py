"""Container images, the registry, and the course whitelist.

Students "can choose from a whitelist of base images" (§V); the default
course image ships "the latest CUDA toolkit along with CUDNN and other
neural network frameworks such as Tensorflow and Torch7" plus the project's
HDF5 data baked in (dependencies are provided in the image to speed builds,
§V footnote on Hunter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ImageNotFound, ImageNotWhitelisted
from repro.gpu.cnn import generate_dataset, generate_model_weights
from repro.gpu.hdf5sim import write_h5s
from repro.gpu.kernels import FULL_DATASET_SIZE, SMALL_DATASET_SIZE
from repro.vfs import DirNode, tree_of


@dataclass(frozen=True)
class ImageLayer:
    """One content-addressed slice of an image.

    Layers are the unit of the registry pull: a worker that already holds
    a layer (because another whitelisted image shares it) never transfers
    it again — pull cost is the *missing* layer bytes only.
    """

    digest: str                    # e.g. "sha256:cuda-base"
    size_bytes: int

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError("layer size must be >= 0")


@dataclass
class Image:
    """A container base image."""

    name: str                      # e.g. "webgpu/rai:root"
    size_bytes: int                # governs pull time on a cache miss
    packages: List[str] = field(default_factory=list)
    #: Files materialised into every container created from this image
    #: (read once, into :meth:`tree`).
    fs_template: Dict[str, bytes] = field(default_factory=dict)
    #: Declared layer manifest.  Empty means "one opaque layer of
    #: ``size_bytes``" (the pre-layer-cache behaviour); declared layers
    #: should sum to ``size_bytes`` so pull accounting stays honest.
    layers: List[ImageLayer] = field(default_factory=list)
    _tree: Optional[DirNode] = field(default=None, init=False, repr=False,
                                     compare=False)

    def effective_layers(self) -> List[ImageLayer]:
        """The layer manifest, synthesising a single whole-image layer
        for images that declare none."""
        if self.layers:
            return list(self.layers)
        return [ImageLayer(digest=f"sha256:whole:{self.name}",
                           size_bytes=self.size_bytes)]

    def tree(self) -> DirNode:
        """``fs_template`` as one frozen tree, built on first use: every
        container of this image starts from a stamped copy of it, as
        Docker containers share an image's read-only layers."""
        if self._tree is None:
            self._tree = tree_of(self.fs_template)
        return self._tree


class ImageRegistry:
    """The Docker-repository stand-in plus the per-course whitelist."""

    def __init__(self):
        self._images: Dict[str, Image] = {}
        self._whitelist: Optional[List[str]] = None

    def add(self, image: Image, whitelisted: bool = True) -> Image:
        self._images[image.name] = image
        if whitelisted:
            if self._whitelist is None:
                self._whitelist = []
            if image.name not in self._whitelist:
                self._whitelist.append(image.name)
        return image

    @property
    def whitelist(self) -> List[str]:
        return list(self._whitelist or [])

    def get(self, name: str) -> Image:
        if self._whitelist is not None and name not in self._whitelist:
            raise ImageNotWhitelisted(
                f"image {name!r} is not on the course whitelist "
                f"{self._whitelist}")
        try:
            return self._images[name]
        except KeyError:
            raise ImageNotFound(name) from None


#: Dataset/model blobs are expensive to regenerate; build them once.
_COURSE_DATA_CACHE: Dict[str, bytes] = {}


def course_data_files() -> Dict[str, bytes]:
    """The /data files baked into the course image.

    ``testfull.hdf5`` carries only its labels plus a recorded size (not
    10,000 raster images) to keep simulated containers light; the ``ece408``
    guest program understands both representations.
    """
    if not _COURSE_DATA_CACHE:
        import numpy as np

        small_images, small_labels = generate_dataset(SMALL_DATASET_SIZE)
        weights = generate_model_weights()
        full = write_h5s({
            "labels": np.zeros(0, dtype=np.int64),
            "count": np.asarray([FULL_DATASET_SIZE], dtype=np.int64),
        })
        small = write_h5s({"images": small_images, "labels": small_labels,
                           "count": np.asarray([SMALL_DATASET_SIZE],
                                               dtype=np.int64)})
        model = write_h5s(weights)
        _COURSE_DATA_CACHE.update({
            "data/test10.hdf5": small,
            "data/testfull.hdf5": full,
            "data/model.hdf5": model,
        })
    return dict(_COURSE_DATA_CACHE)


#: The CUDA runtime + toolkit base shared by every whitelisted course
#: image.  Declaring it once means a worker that pulled *any* course image
#: pays only the per-image top layers for the others.
CUDA_BASE_LAYER = ImageLayer(digest="sha256:cuda-8.0-base",
                             size_bytes=768 * 1024 ** 2)


def default_registry() -> ImageRegistry:
    """The registry used by the Applied Parallel Programming course."""
    registry = ImageRegistry()
    data = course_data_files()
    registry.add(Image(
        name="webgpu/rai:root",
        size_bytes=4 * 1024 ** 3,
        packages=["cuda-8.0", "cudnn-5.1", "cmake", "make",
                  "libhdf5", "tensorflow", "torch7"],
        fs_template=data,
        layers=[
            CUDA_BASE_LAYER,
            ImageLayer(digest="sha256:rai-frameworks",
                       size_bytes=4 * 1024 ** 3 - CUDA_BASE_LAYER.size_bytes),
        ],
    ))
    registry.add(Image(
        name="webgpu/rai:minimal",
        size_bytes=1 * 1024 ** 3,
        packages=["cuda-8.0", "cmake", "make", "libhdf5"],
        fs_template=data,
        layers=[
            CUDA_BASE_LAYER,
            ImageLayer(digest="sha256:rai-buildtools",
                       size_bytes=1 * 1024 ** 3 - CUDA_BASE_LAYER.size_bytes),
        ],
    ))
    # Present in the repository but NOT whitelisted for the course — used
    # by tests to prove whitelist enforcement.
    registry.add(Image(
        name="sketchy/custom:latest",
        size_bytes=512 * 1024 ** 2,
        packages=["netcat"],
    ), whitelisted=False)
    return registry
