"""Unit tests for the HDF5-like container format."""

import numpy as np
import pytest

from repro.gpu.hdf5sim import H5SimError, list_datasets, read_h5s, write_h5s


class TestRoundTrip:
    def test_multiple_dtypes(self):
        data = {
            "f32": np.arange(6, dtype=np.float32).reshape(2, 3),
            "f64": np.ones(4, dtype=np.float64),
            "i64": np.array([1, -2], dtype=np.int64),
            "u8": np.arange(256, dtype=np.uint8),
        }
        back = read_h5s(write_h5s(data))
        assert set(back) == set(data)
        for key in data:
            np.testing.assert_array_equal(back[key], data[key])
            assert back[key].dtype == data[key].dtype

    def test_shapes_preserved(self):
        arr = np.zeros((2, 3, 4, 5), dtype=np.float32)
        back = read_h5s(write_h5s({"x": arr}))
        assert back["x"].shape == (2, 3, 4, 5)

    def test_scalar_like(self):
        back = read_h5s(write_h5s({"n": np.asarray([10000],
                                                   dtype=np.int64)}))
        assert int(back["n"][0]) == 10000

    def test_empty_container(self):
        assert read_h5s(write_h5s({})) == {}

    def test_returned_arrays_are_read_only(self):
        """One parse is shared by every caller, so nobody may write to it:
        neither to a misaligned dataset (a copy) nor an aligned one (a view
        of the container's bytes)."""
        back = read_h5s(write_h5s({"x": np.zeros(3, dtype=np.float32),
                                   "b": np.zeros(3, dtype=np.uint8)}))
        for name in ("x", "b"):
            with pytest.raises(ValueError, match="read-only"):
                back[name][0] = 1
        with pytest.raises(TypeError):
            back["x"] = np.ones(3, dtype=np.float32)

    def test_unicode_names(self):
        back = read_h5s(write_h5s({"conv1.weight":
                                   np.zeros(2, dtype=np.float32)}))
        assert "conv1.weight" in back


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(H5SimError):
            read_h5s(b"GIF89a...")

    def test_truncated(self):
        blob = write_h5s({"x": np.zeros(100, dtype=np.float64)})
        with pytest.raises(H5SimError):
            read_h5s(blob[:40])

    def test_unsupported_dtype(self):
        with pytest.raises(H5SimError):
            write_h5s({"c": np.zeros(2, dtype=np.complex128)})

    def test_list_datasets(self):
        blob = write_h5s({"b": np.zeros(1, dtype=np.float32),
                          "a": np.zeros(1, dtype=np.float32)})
        assert list_datasets(blob) == ["a", "b"]
