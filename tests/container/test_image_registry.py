"""Unit tests for images, the registry, and course data files."""

import numpy as np
import pytest

from repro.container.image import (
    Image,
    ImageRegistry,
    course_data_files,
    default_registry,
)
from repro.errors import ImageNotFound
from repro.gpu.hdf5sim import read_h5s


class TestRegistry:
    def test_default_course_registry(self):
        registry = default_registry()
        assert "webgpu/rai:root" in registry.whitelist
        assert "sketchy/custom:latest" not in registry.whitelist
        assert "sketchy/custom:latest" in registry._images

    def test_unknown_image(self):
        registry = ImageRegistry()
        with pytest.raises(ImageNotFound):
            registry.get("ghost:1")

    def test_no_whitelist_means_all_allowed(self):
        registry = ImageRegistry()
        registry._images["x"] = Image(name="x", size_bytes=1)
        registry.get("x")   # whitelist None → anything known is fine

    def test_add_dedupes_whitelist(self):
        registry = ImageRegistry()
        image = Image(name="a", size_bytes=1)
        registry.add(image)
        registry.add(image)
        assert registry.whitelist == ["a"]


class TestCourseData:
    def test_files_present(self):
        data = course_data_files()
        assert set(data) == {"data/test10.hdf5", "data/testfull.hdf5",
                             "data/model.hdf5"}

    def test_test10_has_real_images(self):
        data = course_data_files()
        small = read_h5s(data["data/test10.hdf5"])
        assert small["images"].shape == (10, 1, 28, 28)
        assert int(small["count"][0]) == 10

    def test_testfull_is_sparse(self):
        """10,000 images are represented by a count, not rasters."""
        data = course_data_files()
        full = read_h5s(data["data/testfull.hdf5"])
        assert int(full["count"][0]) == 10000
        assert len(data["data/testfull.hdf5"]) < 10_000

    def test_model_has_all_layers(self):
        data = course_data_files()
        model = read_h5s(data["data/model.hdf5"])
        assert "conv1.weight" in model and "fc2.bias" in model

    def test_cached_across_calls(self):
        a = course_data_files()
        b = course_data_files()
        assert a["data/model.hdf5"] is b["data/model.hdf5"]
