"""ExecContext accounting: charge, dilation, captures."""

import pytest

from repro.container import ContainerRuntime, ResourceLimits


@pytest.fixture
def container():
    rt = ContainerRuntime()
    c = rt.create_container("webgpu/rai:root")
    c.start()
    return c


class TestCharge:
    def test_negative_charge_rejected(self, container):
        with pytest.raises(ValueError):
            container._context.charge(-1.0)

    def test_charge_returns_amount(self, container):
        assert container._context.charge(2.0) == 2.0

    def test_dilation_scales_charge(self, container):
        container.time_dilation = lambda: 1.5
        assert container._context.charge(2.0) == pytest.approx(3.0)
        assert container.lifetime_used == pytest.approx(3.0)

    def test_dilation_affects_reported_elapsed(self):
        """The contention mechanism: the program's internal timer sees
        dilated time."""
        def run_with_dilation(factor):
            rt = ContainerRuntime()
            from repro.container.volumes import VolumeMount, cuda_volume
            from repro.gpu import get_device
            from repro.vfs import VirtualFileSystem

            project = VirtualFileSystem()
            project.import_mapping({
                "main.cu": "// @rai-sim quality=0.5 impl=analytic\n",
                "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
            })
            c = rt.create_container(
                "webgpu/rai:root",
                mounts=[VolumeMount("/src", read_only=True,
                                    source_fs=project), cuda_volume()],
                gpu_device=get_device("K80"))
            c.time_dilation = lambda: factor
            c.start()
            c.exec_line("cmake /src")
            c.exec_line("make")
            result = c.exec_line(
                "./ece408 /data/test10.hdf5 /data/model.hdf5")
            import re

            return float(re.search(r"Elapsed time: ([\d.]+)",
                                   result.stdout).group(1))

        assert run_with_dilation(2.0) == \
            pytest.approx(2 * run_with_dilation(1.0), rel=0.01)


class TestOutputCapture:
    def test_nested_capture_restores(self, container):
        ctx = container._context
        ctx.write_out("before ")
        ctx.push_stdout_capture()
        ctx.write_out("captured")
        inner = ctx.pop_stdout_capture()
        ctx.write_out("after")
        assert inner == "captured"
        assert ctx.stdout_text() == "before after"

    def test_stderr_not_captured_by_redirect(self, container):
        container.exec_line("cat /ghost > /build/out.txt")
        # stderr went to the stream, stdout (empty) to the file.
        assert container.fs.read_text("/build/out.txt") == ""


class TestMemoryAccounting:
    def test_peak_tracks_maximum(self, container):
        ctx = container._context
        ctx.use_memory(1 * 2**30)
        ctx.use_memory(3 * 2**30)
        ctx.use_memory(2 * 2**30)
        assert container.peak_memory == 3 * 2**30

    def test_limit_strictly_enforced(self):
        rt = ContainerRuntime()
        c = rt.create_container("webgpu/rai:root",
                                limits=ResourceLimits(memory_bytes=2**30))
        c.start()
        from repro.errors import MemoryLimitExceeded

        with pytest.raises(MemoryLimitExceeded):
            c._context.use_memory(2**30 + 1)
