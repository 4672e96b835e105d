"""Unit tests for nvprof and /usr/bin/time wrappers."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container import ContainerRuntime, VolumeMount, cuda_volume
from repro.container.commands.nvprof import export_profile
from repro.gpu import get_device
from repro.gpu.kernels import kernel_timeline
from repro.vfs import VirtualFileSystem


@pytest.fixture
def container():
    rt = ContainerRuntime()
    project = VirtualFileSystem()
    project.import_mapping({
        "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
        "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
    })
    c = rt.create_container(
        "webgpu/rai:root",
        mounts=[VolumeMount("/src", read_only=True, source_fs=project),
                cuda_volume()],
        gpu_device=get_device("K80"))
    c.start()
    c.exec_line("cmake /src")
    c.exec_line("make")
    return c


class TestNvprof:
    def test_export_profile_writes_timeline(self, container):
        """Listing 1 lines 10-11."""
        result = container.exec_line(
            "nvprof --export-profile timeline.nvprof "
            "./ece408 /data/test10.hdf5 /data/model.hdf5")
        assert result.exit_code == 0
        assert container.fs.isfile("/build/timeline.nvprof")
        profile = json.loads(container.fs.read_text("/build/timeline.nvprof"))
        assert profile["kernels"]
        names = [k["name"] for k in profile["kernels"]]
        assert "conv1_kernel" in names
        assert all(k["duration"] > 0 for k in profile["kernels"])

    def test_no_export_prints_summary(self, container):
        result = container.exec_line(
            "nvprof ./ece408 /data/test10.hdf5 /data/model.hdf5")
        assert result.exit_code == 0
        assert "Profiling result" in result.stderr
        assert "conv2_kernel" in result.stderr

    def test_profiling_overhead_charged(self, container):
        plain = container.exec_line(
            "./ece408 /data/test10.hdf5 /data/model.hdf5").sim_duration
        profiled = container.exec_line(
            "nvprof ./ece408 /data/test10.hdf5 /data/model.hdf5"
        ).sim_duration
        assert profiled > plain

    def test_inner_exit_code_propagates(self, container):
        result = container.exec_line("nvprof false")
        assert result.exit_code == 1

    def test_no_command_is_error(self, container):
        assert container.exec_line("nvprof --export-profile x").exit_code == 1

    def test_full_dataset_recognised(self, container):
        container.exec_line(
            "nvprof --export-profile full.nvprof "
            "./ece408 /data/testfull.hdf5 /data/model.hdf5 10000")
        profile = json.loads(container.fs.read_text("/build/full.nvprof"))
        small = container.exec_line(
            "nvprof --export-profile small.nvprof "
            "./ece408 /data/test10.hdf5 /data/model.hdf5")
        small_profile = json.loads(
            container.fs.read_text("/build/small.nvprof"))
        assert sum(k["flops"] for k in profile["kernels"]) > \
            sum(k["flops"] for k in small_profile["kernels"])


class TestTimeCommand:
    def test_reports_real_user_sys(self, container):
        """Listing 2 line 10: /usr/bin/time wraps the graded run."""
        result = container.exec_line(
            "/usr/bin/time ./ece408 /data/testfull.hdf5 "
            "/data/model.hdf5 10000")
        assert result.exit_code == 0
        assert "real" in result.stderr
        assert "user" in result.stderr
        assert "sys" in result.stderr

    def test_wall_close_to_charged(self, container):
        result = container.exec_line("/usr/bin/time sleep 5")
        assert "5.00real" in result.stderr

    def test_inner_failure_propagates(self, container):
        assert container.exec_line("/usr/bin/time false").exit_code == 1

    def test_missing_command(self, container):
        assert container.exec_line("/usr/bin/time").exit_code == 125


class TestExportProfile:
    """The memoised kernel table changes no byte of the exported file."""

    @settings(max_examples=200, database=None)
    @given(rows=st.lists(st.dictionaries(
        st.text(max_size=8),
        st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.integers(), st.text(max_size=8)),
        max_size=5), max_size=4),
        wall=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.integers()))
    def test_matches_json_dumps(self, rows, wall):
        expected = json.dumps({"kernels": rows, "wall": wall}, indent=1)
        assert export_profile(rows, wall) == expected
        # A second encoding of an equal table, from the memo.
        assert export_profile([dict(row) for row in rows], wall) == expected

    def test_equal_tables_encoded_apart(self):
        """Tables that compare equal but encode differently never share a
        memo entry."""
        for value in (1, 1.0, True, 0.0, -0.0, 0, False):
            rows = [{"start": value}]
            assert export_profile(rows, 0.5) == json.dumps(
                {"kernels": rows, "wall": 0.5}, indent=1)

    def test_listing1_timeline_matches_json_dumps(self):
        rows = kernel_timeline(get_device("K80"), 10, 0.8)
        for wall in (0.0, 1.25, 1e-7):
            assert export_profile(rows, wall) == json.dumps(
                {"kernels": rows, "wall": wall}, indent=1)
