"""Property-based tests: the two conv implementations agree everywhere."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import bin_runtimes
from repro.analysis.histogram import BIN_WIDTH
from repro.gpu.cnn import _conv2d_im2col, _conv2d_reference
from repro.gpu.hdf5sim import read_h5s, write_h5s


@st.composite
def conv_cases(draw):
    n = draw(st.integers(1, 3))
    cin = draw(st.integers(1, 4))
    cout = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    h = draw(st.integers(k, k + 6))
    w = draw(st.integers(k, k + 6))
    seed = draw(st.integers(0, 2**16))
    return n, cin, cout, k, h, w, seed


class TestConvEquivalence:
    @settings(max_examples=40)
    @given(case=conv_cases())
    def test_reference_equals_im2col(self, case):
        n, cin, cout, k, h, w, seed = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
        weights = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
        b = rng.normal(size=cout).astype(np.float32)
        ref = _conv2d_reference(x, weights, b)
        fast = _conv2d_im2col(x, weights, b)
        np.testing.assert_allclose(ref, fast, rtol=1e-3, atol=1e-3)

    @settings(max_examples=20)
    @given(case=conv_cases())
    def test_output_shape(self, case):
        n, cin, cout, k, h, w, seed = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
        weights = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
        b = np.zeros(cout, dtype=np.float32)
        out = _conv2d_im2col(x, weights, b)
        assert out.shape == (n, cout, h - k + 1, w - k + 1)


class TestH5SimProperties:
    @settings(max_examples=30)
    @given(arrays=st.dictionaries(
        st.text(alphabet="abcdef.", min_size=1, max_size=10),
        st.tuples(
            st.sampled_from(["float32", "float64", "int64", "uint8"]),
            st.lists(st.integers(0, 5), min_size=0, max_size=3),
            st.integers(0, 2**16),
        ),
        max_size=4))
    def test_roundtrip_any_shapes(self, arrays):
        data = {}
        for name, (dtype, shape, seed) in arrays.items():
            rng = np.random.default_rng(seed)
            data[name] = (rng.random(shape) * 100).astype(dtype)
        back = read_h5s(write_h5s(data))
        assert set(back) == set(data)
        for name in data:
            np.testing.assert_array_equal(back[name], data[name])


class TestHistogramProperties:
    @settings(max_examples=40)
    @given(times=st.lists(st.floats(min_value=0, max_value=200,
                                    allow_nan=False), max_size=40))
    def test_counts_conserve_mass(self, times):
        _, counts = bin_runtimes(times)
        assert counts.sum() == len(times)

    @settings(max_examples=40)
    @given(times=st.lists(st.floats(min_value=0, max_value=50,
                                    allow_nan=False),
                          min_size=1, max_size=40))
    def test_every_value_falls_in_its_bin(self, times):
        edges, counts = bin_runtimes(times)
        for t in times:
            idx = min(int(t / BIN_WIDTH), len(counts) - 1)
            assert counts[idx] > 0 or any(
                counts[j] > 0 for j in (max(0, idx - 1),
                                        min(len(counts) - 1, idx + 1)))
