"""A minimal HDF5-like binary container for named numeric datasets.

The course's model and test data travel in HDF5 files (paper footnote 2:
"the project uses the HDF5 format to store the neural network's model and
test data files").  libhdf5 is unavailable offline, so this module
implements the one capability the system actually exercises — a single
file holding multiple named n-dimensional arrays — with a compact
self-describing binary layout:

``H5SIM1\\0`` magic | uint32 count | per dataset:
uint16 name-length | name utf-8 | 8-byte dtype tag | uint8 ndim |
uint64 shape... | raw little-endian array bytes.

Parsing is a pure function of the bytes, and the image's ``/data`` blobs are
the same ``bytes`` objects in every container, so :func:`read_h5s` parses
each distinct container once and hands every caller the same immutable
:class:`Datasets`.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections.abc import Mapping
from functools import lru_cache
from typing import Dict, Iterator, List

import numpy as np

from repro.errors import ReproError

MAGIC = b"H5SIM1\x00"

_SUPPORTED_DTYPES = {"float32", "float64", "int32", "int64", "uint8"}

#: Distinct containers whose parse is kept (each entry pins its blob).
PARSE_MEMO_SIZE = 8

_COUNT = struct.Struct("<I")
_NAME_LEN = struct.Struct("<H")
_TAG_NDIM = struct.Struct("<8sB")


class H5SimError(ReproError):
    pass


class Datasets(Mapping):
    """What :func:`read_h5s` returns: a read-only ``{name: array}``.

    The arrays are read-only too (views of the container's bytes where
    alignment allows), so one parse can be shared by every caller.
    ``content_key`` is a digest of the container taken at parse time: a
    function of these arrays can be memoised on it without hashing them
    again.
    """

    __slots__ = ("_arrays", "content_key")

    def __init__(self, arrays: Dict[str, np.ndarray], content_key: bytes):
        self._arrays = arrays
        self.content_key = content_key

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)


def write_h5s(datasets: Dict[str, np.ndarray]) -> bytes:
    """Serialise ``{name: array}`` into the container format."""
    out = [MAGIC, struct.pack("<I", len(datasets))]
    for name in sorted(datasets):
        arr = np.ascontiguousarray(datasets[name])
        dtype = arr.dtype.name
        if dtype not in _SUPPORTED_DTYPES:
            raise H5SimError(f"unsupported dtype {dtype!r} for {name!r}")
        name_bytes = name.encode("utf-8")
        out.append(struct.pack("<H", len(name_bytes)))
        out.append(name_bytes)
        out.append(dtype.encode("ascii").ljust(8, b"\x00"))
        out.append(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            out.append(struct.pack("<Q", dim))
        out.append(arr.astype(arr.dtype, order="C").tobytes())
    return b"".join(out)


def read_h5s(blob: bytes) -> Datasets:
    """Parse a container back into ``{name: array}``.

    Raises :class:`H5SimError` on anything that is not a container; every
    length the bytes declare is checked against their size before use.  The
    last ``PARSE_MEMO_SIZE`` distinct containers share their (immutable)
    parse — a ``bytes`` object caches its hash and a dictionary probes by
    identity first, so a hit costs nothing in the container's size —
    and errors are raised afresh each time.
    """
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise H5SimError(f"a container is bytes, got {type(blob).__name__}")
    return _parse(bytes(blob))


def _take(blob: bytes, offset: int, size: int) -> bytes:
    if offset + size > len(blob):
        raise H5SimError(f"truncated container: {size} bytes wanted at "
                         f"offset {offset} of {len(blob)}")
    return blob[offset:offset + size]


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse(blob: bytes) -> Datasets:
    if not blob.startswith(MAGIC):
        raise H5SimError("bad magic: not an H5SIM container")
    offset = len(MAGIC)
    (count,) = _COUNT.unpack(_take(blob, offset, _COUNT.size))
    offset += _COUNT.size
    if count * (_NAME_LEN.size + _TAG_NDIM.size) > len(blob) - offset:
        raise H5SimError(f"truncated container: {count} datasets declared "
                         f"in {len(blob)} bytes")
    arrays: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = _NAME_LEN.unpack(_take(blob, offset, _NAME_LEN.size))
        offset += _NAME_LEN.size
        try:
            name = _take(blob, offset, name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise H5SimError("dataset name is not UTF-8") from None
        offset += name_len
        tag, ndim = _TAG_NDIM.unpack(_take(blob, offset, _TAG_NDIM.size))
        offset += _TAG_NDIM.size
        dtype = tag.rstrip(b"\x00").decode("ascii", "replace")
        if dtype not in _SUPPORTED_DTYPES:
            raise H5SimError(f"unsupported dtype tag {dtype!r}")
        shape = struct.unpack(f"<{ndim}Q", _take(blob, offset, 8 * ndim))
        offset += 8 * ndim
        size = math.prod(shape)
        nbytes = size * np.dtype(dtype).itemsize
        if nbytes > len(blob) - offset:
            raise H5SimError(f"truncated container reading {name!r}")
        try:
            arr = np.frombuffer(blob, dtype, size, offset).reshape(shape)
        except ValueError as exc:
            raise H5SimError(f"bad shape {shape} for {name!r}: {exc}") \
                from None
        offset += nbytes
        arr = np.require(arr, requirements="A")  # a copy only if misaligned
        arr.flags.writeable = False
        arrays[name] = arr
    return Datasets(arrays, hashlib.sha256(blob).digest())


def list_datasets(blob: bytes) -> List[str]:
    return sorted(read_h5s(blob))
