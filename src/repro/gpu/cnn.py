"""The ECE408 project workload: CNN inference in NumPy.

The fall-2016 project asked teams to implement the forward (inference) pass
of a fixed convolutional network against provided weights, maintaining a
target accuracy (paper §VI, "Competition Ranking").  We implement the
network for real, twice:

- ``impl="reference"`` — a deliberately naive direct convolution with
  Python loops over the output volume: the provided "baseline serial CPU
  implementation" (slow, the thing that takes ~30 simulated minutes on the
  full dataset);
- ``impl="im2col"`` — the classic im2col + GEMM lowering, fully vectorised
  through BLAS: the optimisation-target implementation.

Both produce identical results (property-tested), which is exactly the
uniformity the course's grading relies on.  Each layer also reports its
FLOP and byte counts so the GPU roofline model can convert the same work
into simulated device time.

Inference draws no random number, so :func:`infer` is a function of the
content of its inputs and computes each distinct one once.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.errors import ReproError
from repro.gpu.hdf5sim import Datasets


# --------------------------------------------------------------------------
# Layers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Conv2D:
    """Valid (no padding), stride-1 2D convolution, NCHW layout."""

    name: str
    in_channels: int
    out_channels: int
    kernel: int

    def out_shape(self, h: int, w: int) -> Tuple[int, int]:
        return h - self.kernel + 1, w - self.kernel + 1

    def flops(self, h: int, w: int, batch: int) -> float:
        oh, ow = self.out_shape(h, w)
        # 2 FLOPs (mul+add) per MAC.
        return 2.0 * batch * self.out_channels * oh * ow * \
            self.in_channels * self.kernel * self.kernel

    def bytes_moved(self, h: int, w: int, batch: int) -> float:
        oh, ow = self.out_shape(h, w)
        inputs = batch * self.in_channels * h * w
        weights = self.out_channels * self.in_channels * self.kernel ** 2
        outputs = batch * self.out_channels * oh * ow
        return 4.0 * (inputs + weights + outputs)

    def weight_shapes(self) -> Dict[str, tuple]:
        return {f"{self.name}.weight": (self.out_channels, self.in_channels,
                                        self.kernel, self.kernel),
                f"{self.name}.bias": (self.out_channels,)}

    def forward(self, x: np.ndarray, weights: Dict[str, np.ndarray],
                impl: str) -> np.ndarray:
        w = weights[f"{self.name}.weight"]
        b = weights[f"{self.name}.bias"]
        if impl == "reference":
            return _conv2d_reference(x, w, b)
        if impl == "im2col":
            return _conv2d_im2col(x, w, b)
        raise ValueError(f"unknown conv implementation {impl!r}")


@dataclass(frozen=True)
class ReLU:
    name: str

    def forward(self, x, weights, impl):
        return np.maximum(x, 0.0)

    def flops(self, h, w, batch):
        return 0.0

    def bytes_moved(self, h, w, batch):
        return 0.0


@dataclass(frozen=True)
class AvgPool2D:
    """Non-overlapping average pooling."""

    name: str
    size: int = 2

    def forward(self, x, weights, impl):
        n, c, h, w = x.shape
        s = self.size
        oh, ow = h // s, w // s
        trimmed = x[:, :, : oh * s, : ow * s]
        return trimmed.reshape(n, c, oh, s, ow, s).mean(axis=(3, 5))

    def flops(self, h, w, batch):
        return 0.0

    def bytes_moved(self, h, w, batch):
        return 0.0


@dataclass(frozen=True)
class Flatten:
    name: str

    def forward(self, x, weights, impl):
        # Not ``-1``: NumPy cannot infer it for an empty batch.
        return x.reshape(len(x), math.prod(x.shape[1:]))

    def flops(self, h, w, batch):
        return 0.0

    def bytes_moved(self, h, w, batch):
        return 0.0


@dataclass(frozen=True)
class Dense:
    name: str
    in_features: int
    out_features: int

    def forward(self, x, weights, impl):
        w = weights[f"{self.name}.weight"]
        b = weights[f"{self.name}.bias"]
        return x @ w + b

    def flops(self, h, w, batch):
        return 2.0 * batch * self.in_features * self.out_features

    def bytes_moved(self, h, w, batch):
        return 4.0 * (batch * self.in_features +
                      self.in_features * self.out_features +
                      batch * self.out_features)

    def weight_shapes(self) -> Dict[str, tuple]:
        return {f"{self.name}.weight": (self.in_features, self.out_features),
                f"{self.name}.bias": (self.out_features,)}


@dataclass
class Network:
    """A fixed feed-forward stack with shape/FLOP introspection."""

    input_shape: Tuple[int, int, int]  # (channels, height, width)
    layers: List[object] = field(default_factory=list)

    def layer_costs(self, batch: int) -> List[dict]:
        """Per-layer (name, flops, bytes) for a given batch size."""
        c, h, w = self.input_shape
        costs = []
        for layer in self.layers:
            costs.append({
                "name": layer.name,
                "kind": type(layer).__name__,
                "flops": layer.flops(h, w, batch),
                "bytes": layer.bytes_moved(h, w, batch),
            })
            if isinstance(layer, Conv2D):
                h, w = layer.out_shape(h, w)
                c = layer.out_channels
            elif isinstance(layer, AvgPool2D):
                h, w = h // layer.size, w // layer.size
        return costs

    def total_flops(self, batch: int) -> float:
        return sum(c["flops"] for c in self.layer_costs(batch))

    def total_bytes(self, batch: int) -> float:
        return sum(c["bytes"] for c in self.layer_costs(batch))

    def weight_shapes(self) -> Dict[str, tuple]:
        """``{dataset name: shape}`` of every array the layers read."""
        shapes: Dict[str, tuple] = {}
        for layer in self.layers:
            if isinstance(layer, (Conv2D, Dense)):
                shapes.update(layer.weight_shapes())
        return shapes


# --------------------------------------------------------------------------
# Convolution implementations
# --------------------------------------------------------------------------


def _conv2d_reference(x: np.ndarray, w: np.ndarray,
                      b: np.ndarray) -> np.ndarray:
    """Naive direct convolution (loops over output pixels).

    Mirrors the structure of the serial CPU baseline handed to students:
    seven nested loops, no blocking, no vectorisation beyond the innermost
    receptive-field dot product.
    """
    n, cin, h, ww = x.shape
    cout, _, k, _ = w.shape
    oh, ow = h - k + 1, ww - k + 1
    out = np.empty((n, cout, oh, ow), dtype=np.float32)
    for img in range(n):
        for oc in range(cout):
            kernel = w[oc]
            for i in range(oh):
                for j in range(ow):
                    patch = x[img, :, i:i + k, j:j + k]
                    out[img, oc, i, j] = float(np.sum(patch * kernel)) + b[oc]
    return out


def _conv2d_im2col(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """im2col + GEMM lowering — the vectorised implementation."""
    n, cin, h, ww = x.shape
    cout, _, k, _ = w.shape
    oh, ow = h - k + 1, ww - k + 1
    # Build the column matrix via stride tricks (no data copy until reshape).
    shape = (n, cin, k, k, oh, ow)
    strides = (x.strides[0], x.strides[1], x.strides[2], x.strides[3],
               x.strides[2], x.strides[3])
    cols = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = cols.reshape(n, cin * k * k, oh * ow)
    wmat = w.reshape(cout, cin * k * k)
    out = np.einsum("of,nfp->nop", wmat, cols, optimize=True)
    out += b[None, :, None]
    return out.reshape(n, cout, oh, ow).astype(np.float32, copy=False)


# --------------------------------------------------------------------------
# The fixed course network, weights, and data
# --------------------------------------------------------------------------

#: Input geometry of the course dataset: 1×28×28 grayscale digits.
ECE408_INPUT_SHAPE = (1, 28, 28)
ECE408_NUM_CLASSES = 10


def build_ece408_network() -> Network:
    """The fixed inference network teams implemented.

    A LeNet-style stack matching the course project's scale: two conv
    layers with pooling, then two dense layers.
    """
    return Network(
        input_shape=ECE408_INPUT_SHAPE,
        layers=[
            Conv2D("conv1", in_channels=1, out_channels=32, kernel=5),
            ReLU("relu1"),
            AvgPool2D("pool1", size=2),
            Conv2D("conv2", in_channels=32, out_channels=64, kernel=5),
            ReLU("relu2"),
            AvgPool2D("pool2", size=2),
            Flatten("flatten"),
            Dense("fc1", in_features=64 * 4 * 4, out_features=128),
            ReLU("relu3"),
            Dense("fc2", in_features=128, out_features=ECE408_NUM_CLASSES),
        ],
    )


def generate_model_weights(seed: int = 408) -> Dict[str, np.ndarray]:
    """Deterministic "pre-trained" weights for the fixed network."""
    rng = np.random.default_rng(seed)
    net = build_ece408_network()
    weights: Dict[str, np.ndarray] = {}
    for layer in net.layers:
        if isinstance(layer, Conv2D):
            fan_in = layer.in_channels * layer.kernel ** 2
            weights[f"{layer.name}.weight"] = rng.normal(
                0.0, 1.0 / np.sqrt(fan_in),
                size=(layer.out_channels, layer.in_channels,
                      layer.kernel, layer.kernel)).astype(np.float32)
            weights[f"{layer.name}.bias"] = rng.normal(
                0.0, 0.01, size=layer.out_channels).astype(np.float32)
        elif isinstance(layer, Dense):
            weights[f"{layer.name}.weight"] = rng.normal(
                0.0, 1.0 / np.sqrt(layer.in_features),
                size=(layer.in_features, layer.out_features)
            ).astype(np.float32)
            weights[f"{layer.name}.bias"] = rng.normal(
                0.0, 0.01, size=layer.out_features).astype(np.float32)
    return weights


def generate_dataset(n: int, seed: int = 10) -> Tuple[np.ndarray, np.ndarray]:
    """Synthetic digit images plus labels.

    Labels are defined as the argmax of the *reference network itself* on
    the provided weights, so a correct student implementation scores 100%
    accuracy and any numerical deviation shows up as accuracy loss —
    mirroring the course's "maintain a target accuracy" rule.
    """
    rng = np.random.default_rng(seed)
    c, h, w = ECE408_INPUT_SHAPE
    # Low-frequency random fields (a coarse 7×7 grid upsampled 4×), not
    # iid noise: digit-like spatial structure is what makes different
    # images activate different classes.  With iid pixels the network's
    # pooled features are nearly constant across images and every
    # classifier — right or wrong — predicts one class, which would make
    # the accuracy check vacuous.
    coarse = rng.normal(0.0, 1.0, size=(n, c, 7, 7)).astype(np.float32)
    images = np.repeat(np.repeat(coarse, 4, axis=2), 4, axis=3)
    images += 0.15 * rng.normal(0.0, 1.0,
                                size=(n, c, h, w)).astype(np.float32)
    weights = generate_model_weights()
    logits = infer(images, weights, impl="im2col")
    labels = np.argmax(logits, axis=1).astype(np.int64)
    return images, labels


class CnnInputError(ReproError):
    """A dataset or model file parses but is not what the network reads."""

    def __init__(self, source: str, message: str):
        super().__init__(message)
        #: ``"dataset"`` or ``"model"``: which of the two files is at fault.
        self.source = source


@lru_cache(maxsize=1)
def _ece408_weight_shapes() -> tuple:
    return tuple(build_ece408_network().weight_shapes().items())


def check_ece408_inputs(dataset: Mapping[str, np.ndarray],
                        weights: Mapping[str, np.ndarray]) -> None:
    """Raise :class:`CnnInputError` unless the two parsed containers are a
    course dataset and a model for :func:`build_ece408_network`.

    After this, the record count can be read and :func:`infer` /
    :func:`accuracy` are defined on ``dataset["images"]``,
    ``dataset["labels"]`` and ``weights`` — the precondition under which
    ``infer`` is a function of content.  A dataset may omit ``images``
    (``testfull.hdf5`` carries a count instead of 10,000 rasters) and a
    model may carry no network weights at all.
    """
    count = dataset.get("count")
    if count is not None and (count.shape != (1,)
                              or count.dtype.kind not in "iu"):
        raise CnnInputError("dataset", f"count must be one integer, got "
                                       f"{count.dtype.name}{count.shape}")
    labels = dataset.get("labels")
    if labels is not None and labels.ndim != 1:
        raise CnnInputError("dataset", f"labels must be one-dimensional, "
                                       f"got shape {labels.shape}")
    images = dataset.get("images")
    if images is not None:
        if images.shape[1:] != ECE408_INPUT_SHAPE:
            raise CnnInputError(
                "dataset", f"images have shape {images.shape}, expected "
                           f"(n, {', '.join(map(str, ECE408_INPUT_SHAPE))})")
        if labels is None or len(labels) != len(images):
            raise CnnInputError(
                "dataset", f"{len(images)} images need {len(images)} labels, "
                f"got {'none' if labels is None else len(labels)}")
    if any(name.endswith(".weight") for name in weights):
        for name, shape in _ece408_weight_shapes():
            if name not in weights:
                raise CnnInputError("model", f"{name} is missing")
            if weights[name].shape != shape:
                raise CnnInputError(
                    "model", f"{name} has shape {weights[name].shape}, "
                             f"expected {shape}")


#: Distinct (impl, network, images, weights) inputs whose logits are kept.
INFER_MEMO_SIZE = 32

_logits_memo: "OrderedDict[tuple, np.ndarray]" = OrderedDict()


def _content_key(arr: np.ndarray) -> tuple:
    arr = np.ascontiguousarray(arr)
    return arr.dtype.str, arr.shape, hashlib.sha256(arr).digest()


def infer(images: np.ndarray, weights: Mapping[str, np.ndarray],
          impl: str = "im2col", network: Network = None) -> np.ndarray:
    """Run the forward pass; returns logits of shape (n, 10), read-only.

    The logits are a function of ``(impl, network, content of images,
    content of weights)``; the last ``INFER_MEMO_SIZE`` distinct inputs
    keep theirs.  Weights parsed by ``read_h5s`` bring their content key
    with them, so a hit hashes the images and nothing else; any other
    mapping is hashed array by array.  An input that raises is not kept.
    """
    if isinstance(weights, Datasets):
        weights_key = weights.content_key
    else:
        weights_key = tuple((name, _content_key(weights[name]))
                            for name in sorted(weights))
    key = (impl, network and (network.input_shape, tuple(network.layers)),
           _content_key(images), weights_key)
    logits = _logits_memo.get(key)
    if logits is not None:
        _logits_memo.move_to_end(key)
        return logits
    net = network or build_ece408_network()
    x = images.astype(np.float32, copy=False)
    for layer in net.layers:
        x = layer.forward(x, weights, impl)
    if not x.flags.owndata:  # never keep a view of the caller's array
        x = x.copy()
    x.flags.writeable = False
    _logits_memo[key] = x
    if len(_logits_memo) > INFER_MEMO_SIZE:
        _logits_memo.popitem(last=False)
    return x


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1]."""
    if len(labels) == 0:
        return 0.0
    return float(np.mean(np.argmax(logits, axis=1) == labels))
