"""Unit tests for cmake/make and the produced ece408 binary."""

import pytest

from repro.container import ContainerRuntime, VolumeMount, cuda_volume
from repro.container.commands.base import parse_source_markers
from repro.gpu import get_device
from repro.vfs import VirtualFileSystem


def make_container(files, gpu=True):
    rt = ContainerRuntime()
    project = VirtualFileSystem()
    project.import_mapping(files)
    mounts = [VolumeMount("/src", read_only=True, source_fs=project)]
    if gpu:
        mounts.append(cuda_volume())
    c = rt.create_container("webgpu/rai:root", mounts=mounts,
                            gpu_device=get_device("K80") if gpu else None)
    c.start()
    return c


GOOD_PROJECT = {
    "main.cu": "// @rai-sim quality=0.9 impl=analytic\nint main(){}\n",
    "CMakeLists.txt": "project(p)\nadd_executable(ece408 main.cu)\n",
}


class TestMarkers:
    def test_defaults(self):
        profile = parse_source_markers({"a.cu": "no markers here"})
        assert profile["quality"] == 0.0
        assert profile["impl"] == "analytic"
        assert profile["compile"] == "ok"

    def test_parsing(self):
        profile = parse_source_markers({
            "a.cu": "// @rai-sim quality=0.75 impl=im2col correctness=0.9 "
                    "runtime=crash mem_gb=3.5"})
        assert profile["quality"] == 0.75
        assert profile["impl"] == "im2col"
        assert profile["correctness"] == 0.9
        assert profile["runtime"] == "crash"
        assert profile["mem_gb"] == 3.5

    def test_quality_clamped(self):
        profile = parse_source_markers({"a.cu": "// @rai-sim quality=7"})
        assert profile["quality"] == 1.0

    def test_unknown_keys_ignored(self):
        profile = parse_source_markers({"a.cu": "// @rai-sim wat=1"})
        assert "wat" not in profile


class TestCMake:
    def test_generates_makefile(self):
        c = make_container(GOOD_PROJECT)
        result = c.exec_line("cmake /src")
        assert result.exit_code == 0
        assert c.fs.isfile("/build/Makefile")
        assert "Configuring done" in result.stdout

    def test_missing_source_dir_fails(self):
        c = make_container(GOOD_PROJECT)
        assert c.exec_line("cmake /nope").exit_code == 1

    def test_target_name_from_cmakelists(self):
        files = dict(GOOD_PROJECT)
        files["CMakeLists.txt"] = "add_executable(mybinary main.cu)\n"
        c = make_container(files)
        c.exec_line("cmake /src")
        c.exec_line("make")
        assert c.fs.isfile("/build/mybinary")

    def test_charges_time(self):
        c = make_container(GOOD_PROJECT)
        assert c.exec_line("cmake /src").sim_duration > 1.0


class TestMake:
    def test_requires_makefile(self):
        c = make_container(GOOD_PROJECT)
        result = c.exec_line("make")
        assert result.exit_code == 2
        assert "no makefile" in result.stderr

    def test_builds_executable(self):
        c = make_container(GOOD_PROJECT)
        c.exec_line("cmake /src")
        result = c.exec_line("make")
        assert result.exit_code == 0
        assert c.fs.stat("/build/ece408")["executable"]
        assert "Built target" in result.stdout

    def test_compile_error_marker_fails_build(self):
        files = {
            "main.cu": "// @rai-sim compile=error\nint main(){}\n",
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
        }
        c = make_container(files)
        c.exec_line("cmake /src")
        result = c.exec_line("make")
        assert result.exit_code == 2
        assert "error:" in result.stderr
        assert not c.fs.exists("/build/ece408")

    def test_literal_compile_error_text_also_fails(self):
        files = {
            "main.cu": "int main(){ COMPILE_ERROR }\n",
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
        }
        c = make_container(files)
        c.exec_line("cmake /src")
        assert c.exec_line("make").exit_code == 2

    def test_no_sources_fails(self):
        c = make_container({"README": "empty project"})
        c.exec_line("cmake /src")
        assert c.exec_line("make").exit_code == 2

    def test_compile_time_scales_with_files(self):
        many = {f"f{i}.cu": "// code" for i in range(6)}
        many["CMakeLists.txt"] = "add_executable(ece408 f0.cu)\n"
        c1 = make_container(GOOD_PROJECT)
        c1.exec_line("cmake /src")
        t1 = c1.exec_line("make").sim_duration
        c2 = make_container(many)
        c2.exec_line("cmake /src")
        t2 = c2.exec_line("make").sim_duration
        assert t2 > t1


class TestEce408Binary:
    def build(self, files, gpu=True):
        c = make_container(files, gpu=gpu)
        c.exec_line("cmake /src")
        c.exec_line("make")
        return c

    def test_small_dataset_run(self):
        c = self.build(GOOD_PROJECT)
        result = c.exec_line("./ece408 /data/test10.hdf5 /data/model.hdf5")
        assert result.exit_code == 0
        assert "Correctness:" in result.stdout
        assert "Elapsed time:" in result.stdout

    def test_full_dataset_slower_than_small(self):
        c = self.build(GOOD_PROJECT)
        small = c.exec_line("./ece408 /data/test10.hdf5 /data/model.hdf5")
        full = c.exec_line(
            "./ece408 /data/testfull.hdf5 /data/model.hdf5 10000")
        assert full.sim_duration > small.sim_duration

    def test_quality_changes_runtime(self):
        def time_for(q):
            files = {
                "main.cu": f"// @rai-sim quality={q} impl=analytic\n",
                "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
            }
            c = self.build(files)
            return c.exec_line(
                "./ece408 /data/testfull.hdf5 /data/model.hdf5 10000"
            ).sim_duration

        assert time_for(0.1) > time_for(0.9) * 5

    def test_real_numpy_implementations_score_full_accuracy(self):
        for impl in ("reference", "im2col"):
            files = {
                "main.cu": f"// @rai-sim quality=0.5 impl={impl}\n",
                "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
            }
            c = self.build(files)
            result = c.exec_line(
                "./ece408 /data/test10.hdf5 /data/model.hdf5")
            assert "Correctness: 1.0000" in result.stdout

    def test_declared_correctness_reported_on_full_dataset(self):
        files = {
            "main.cu": "// @rai-sim quality=0.5 correctness=0.8123\n",
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
        }
        c = self.build(files)
        result = c.exec_line(
            "./ece408 /data/testfull.hdf5 /data/model.hdf5 10000")
        assert "Correctness: 0.8123" in result.stdout

    def test_crash_marker(self):
        files = {
            "main.cu": "// @rai-sim runtime=crash\n",
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
        }
        c = self.build(files)
        result = c.exec_line("./ece408 /data/test10.hdf5 /data/model.hdf5")
        assert result.exit_code == 139
        assert "Segmentation fault" in result.stderr

    def test_no_gpu_is_cuda_error(self):
        c = self.build(GOOD_PROJECT, gpu=False)
        result = c.exec_line("./ece408 /data/test10.hdf5 /data/model.hdf5")
        assert result.exit_code == 30
        assert "CUDA error" in result.stderr

    def test_missing_dataset(self):
        c = self.build(GOOD_PROJECT)
        result = c.exec_line("./ece408 /data/ghost.hdf5 /data/model.hdf5")
        assert result.exit_code == 66

    def test_usage_error(self):
        c = self.build(GOOD_PROJECT)
        assert c.exec_line("./ece408").exit_code == 64

    def test_nvidia_smi_via_cuda_volume(self):
        c = make_container(GOOD_PROJECT)
        result = c.exec_line("/usr/local/nvidia/bin/nvidia-smi")
        assert result.exit_code == 0
        assert "K80" in result.stdout
