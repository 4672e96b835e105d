"""``read_h5s`` and ``infer`` compute once; nobody can tell.

Both keep their last few distinct inputs.  The oracles below are the
designs they replaced, kept here only as a specification: a parse that
copies every dataset out of the bytes on every call, and a forward pass
that walks the layers on every call.  For generated containers, image
counts and both convolution implementations the memoised functions must
equal them bit for bit, hit on equal content held in another object and
miss on content one byte away.  Damaged containers must fail as
``H5SimError`` and nothing else.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.cnn import build_ece408_network, generate_model_weights, infer
from repro.gpu.hdf5sim import MAGIC, H5SimError, read_h5s, write_h5s

# -- the oracles --------------------------------------------------------------


def oracle_read(blob):
    assert blob.startswith(MAGIC)
    offset = len(MAGIC)
    (count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    datasets = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        name = blob[offset:offset + name_len].decode("utf-8")
        offset += name_len
        dtype = blob[offset:offset + 8].rstrip(b"\x00").decode("ascii")
        offset += 8
        (ndim,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        shape = struct.unpack_from(f"<{ndim}Q", blob, offset)
        offset += 8 * ndim
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        assert offset + nbytes <= len(blob)
        arr = np.frombuffer(blob[offset:offset + nbytes], dtype=dtype)
        offset += nbytes
        datasets[name] = arr.reshape(shape).copy()
    return datasets


def oracle_infer(images, weights, impl):
    x = images.astype(np.float32, copy=False)
    for layer in build_ece408_network().layers:
        x = layer.forward(x, weights, impl)
    return x


def assert_same_arrays(got, want):
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].dtype == want[name].dtype
        assert got[name].shape == want[name].shape
        assert got[name].tobytes() == want[name].tobytes()


def another_object(blob):
    return bytes(bytearray(blob))


# -- read_h5s -----------------------------------------------------------------

dataset_specs = st.dictionaries(
    st.text(alphabet="abcdef.", min_size=1, max_size=10),
    st.tuples(
        st.sampled_from(["float32", "float64", "int32", "int64", "uint8"]),
        st.lists(st.integers(0, 5), min_size=0, max_size=3),
        st.integers(0, 2 ** 16)),
    max_size=4)


def container(specs):
    data = {}
    for name, (dtype, shape, seed) in specs.items():
        rng = np.random.default_rng(seed)
        data[name] = (rng.random(shape) * 100).astype(dtype)
    return write_h5s(data)


class TestParseMemo:
    @settings(max_examples=60, deadline=None)
    @given(specs=dataset_specs)
    def test_equals_the_copying_parse_and_hits_on_equal_content(self, specs):
        blob = container(specs)
        first = read_h5s(blob)
        assert_same_arrays(first, oracle_read(blob))
        assert read_h5s(blob) is first
        twin = another_object(blob)
        assert twin is not blob and read_h5s(twin) is first

    @settings(max_examples=60, deadline=None)
    @given(specs=dataset_specs, where=st.integers(0, 2 ** 16),
           bit=st.integers(0, 7))
    def test_misses_on_content_one_byte_away(self, specs, where, bit):
        blob = container(specs)
        first = read_h5s(blob)
        damaged = bytearray(blob)
        damaged[len(MAGIC) + where % (len(blob) - len(MAGIC))] ^= 1 << bit
        for other in (bytes(damaged), blob + b"\x00"):
            try:
                second = read_h5s(other)
            except H5SimError:
                continue
            assert second is not first
            assert second.content_key != first.content_key
            try:
                want = oracle_read(other)
            except (AssertionError, ValueError, UnicodeDecodeError,
                    TypeError, struct.error):
                continue    # the oracle has no opinion on damaged bytes
            assert_same_arrays(second, want)
        assert read_h5s(blob) is first


class TestDamagedContainers:
    BLOB = write_h5s({
        "images": np.arange(24, dtype=np.float32).reshape(2, 1, 3, 4),
        "labels": np.array([3, 1], dtype=np.int64),
        "ünï.cödé": np.arange(5, dtype=np.uint8),
        "scalar": np.float64(2.5),
    })

    def test_every_truncation_is_an_h5sim_error(self):
        assert sorted(read_h5s(self.BLOB)) == sorted(oracle_read(self.BLOB))
        for cut in range(len(self.BLOB)):
            with pytest.raises(H5SimError):
                read_h5s(self.BLOB[:cut])

    @settings(max_examples=300, deadline=None)
    @given(flips=st.lists(
        st.tuples(st.integers(0, len(BLOB) - 1), st.integers(1, 255)),
        min_size=1, max_size=4), cut=st.integers(0, len(BLOB)))
    def test_flipped_bytes_parse_or_raise_h5sim_error(self, flips, cut):
        damaged = bytearray(self.BLOB)
        for where, mask in flips:
            damaged[where] ^= mask
        for blob in (bytes(damaged), bytes(damaged[:cut])):
            try:
                parsed = read_h5s(blob)
            except H5SimError:
                continue
            for arr in parsed.values():
                assert arr.nbytes <= len(blob)

    @pytest.mark.parametrize("blob", [None, "H5SIM1", 7, [72, 53]])
    def test_not_bytes_is_an_h5sim_error(self, blob):
        with pytest.raises(H5SimError):
            read_h5s(blob)


# -- infer --------------------------------------------------------------------


def images_of(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 1, 28, 28)).astype(np.float32)


class TestInferMemo:
    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(0, 2), image_seed=st.integers(0, 2 ** 16),
           weight_seed=st.integers(0, 3),
           impl=st.sampled_from(["im2col", "reference"]),
           parsed=st.booleans())
    def test_equals_the_layer_by_layer_forward(self, n, image_seed,
                                               weight_seed, impl, parsed):
        images = images_of(n, image_seed)
        plain = generate_model_weights(seed=weight_seed)
        weights = read_h5s(write_h5s(plain)) if parsed else plain
        want = oracle_infer(images, plain, impl)
        got = infer(images, weights, impl=impl)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # equal content in other objects: the same logits object comes back
        again = infer(images.copy(),
                      read_h5s(another_object(write_h5s(plain)))
                      if parsed else {k: v.copy() for k, v in plain.items()},
                      impl=impl)
        assert again is got
        with pytest.raises(ValueError, match="read-only"):
            got.flat = 0.0

    @settings(max_examples=12, deadline=None)
    @given(image_seed=st.integers(0, 2 ** 16),
           name=st.sampled_from(["conv1.weight", "conv2.bias", "fc1.weight",
                                 "fc2.bias"]),
           parsed=st.booleans())
    def test_misses_on_content_one_value_away(self, image_seed, name,
                                              parsed):
        images = images_of(2, image_seed)
        plain = generate_model_weights()
        nudged = dict(plain)
        nudged[name] = plain[name].copy()
        nudged[name].flat[0] += 1.0

        def load(weights):
            return read_h5s(write_h5s(weights)) if parsed else weights

        first = infer(images, load(plain))
        other_weights = infer(images, load(nudged))
        assert other_weights is not first
        assert other_weights.tobytes() == \
            oracle_infer(images, nudged, "im2col").tobytes()
        moved = images.copy()
        moved[1, 0, 5, 5] += 1.0
        other_images = infer(moved, load(plain))
        assert other_images is not first
        assert other_images.tobytes() == \
            oracle_infer(moved, plain, "im2col").tobytes()
        assert infer(images, load(plain)) is first

    def test_an_input_that_raises_is_not_kept(self):
        images = images_of(1, 0)
        weights = generate_model_weights()
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown conv"):
                infer(images, weights, impl="winograd")
