"""Unit tests for the container state machine and resource limits."""

import pytest

from repro.container import (
    ContainerRuntime,
    ContainerState,
    ResourceLimits,
    VolumeMount,
    cuda_volume,
)
from repro.errors import (
    ContainerStateError,
    ImageNotFound,
    ImageNotWhitelisted,
)
from repro.gpu import get_device
from repro.vfs import VirtualFileSystem


def project(marker="// @rai-sim quality=0.5"):
    fs = VirtualFileSystem()
    fs.import_mapping({
        "main.cu": marker + "\nint main(){}\n",
        "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
    })
    return fs


def build_container(rt=None, limits=None, marker="// @rai-sim quality=0.5"):
    rt = rt or ContainerRuntime()
    c = rt.create_container(
        "webgpu/rai:root",
        limits=limits,
        mounts=[VolumeMount("/src", read_only=True, source_fs=project(marker)),
                cuda_volume()],
        gpu_device=get_device("K80"))
    c.start()
    c.exec_line("cmake /src")
    c.exec_line("make")
    return c


class TestLifecycle:
    def test_states(self):
        rt = ContainerRuntime()
        c = rt.create_container("webgpu/rai:root")
        assert c.state is ContainerState.CREATED
        c.start()
        assert c.state is ContainerState.RUNNING
        c.stop()
        assert c.state is ContainerState.EXITED
        rt.destroy_container(c)
        assert c.state is ContainerState.DESTROYED

    def test_exec_requires_running(self):
        rt = ContainerRuntime()
        c = rt.create_container("webgpu/rai:root")
        with pytest.raises(ContainerStateError):
            c.exec_line("echo hi")

    def test_double_start_rejected(self):
        rt = ContainerRuntime()
        c = rt.create_container("webgpu/rai:root")
        c.start()
        with pytest.raises(ContainerStateError):
            c.start()

    def test_destroy_releases_filesystem(self):
        rt = ContainerRuntime()
        c = rt.create_container("webgpu/rai:root")
        rt.destroy_container(c)
        assert c.fs is None
        assert rt.live_count == 0


class TestWhitelist:
    def test_whitelisted_images_allowed(self):
        rt = ContainerRuntime()
        for image in ("webgpu/rai:root", "webgpu/rai:minimal"):
            rt.create_container(image)

    def test_unlisted_image_rejected(self):
        rt = ContainerRuntime()
        with pytest.raises(ImageNotWhitelisted):
            rt.create_container("sketchy/custom:latest")

    def test_unknown_image_rejected(self):
        rt = ContainerRuntime()
        with pytest.raises(ImageNotFound):
            rt.registry._whitelist = ["ghost:latest"]
            rt.create_container("ghost:latest")


class TestImageCache:
    def test_first_pull_costs_later_free(self):
        rt = ContainerRuntime()
        first = rt.pull_cost_seconds("webgpu/rai:root")
        assert first > 0
        rt.create_container("webgpu/rai:root")
        assert rt.pull_cost_seconds("webgpu/rai:root") == 0.0

    def test_pull_time_scales_with_size(self):
        rt = ContainerRuntime()
        big = rt.pull_cost_seconds("webgpu/rai:root")
        small = rt.pull_cost_seconds("webgpu/rai:minimal")
        assert big > small

    def test_a_pull_in_flight_is_joined_not_repeated(self):
        now = [0.0]
        rt = ContainerRuntime(clock=lambda: now[0])
        root = rt.registry.get("webgpu/rai:root")
        first = rt.pull("webgpu/rai:root")
        assert (first.bytes, first.joined) == (root.size_bytes, False)
        now[0] = 20.0
        assert rt.pull_cost_seconds("webgpu/rai:root") == \
            pytest.approx(first.seconds - 20.0)
        second = rt.pull("webgpu/rai:root")
        assert (second.bytes, second.joined) == (0, True)
        assert second.seconds == pytest.approx(first.seconds - 20.0)
        # The lean image shares the base layer, which arrived first; only
        # its own top layer is fetched.
        lean = rt.pull("webgpu/rai:minimal")
        top = rt.registry.get("webgpu/rai:minimal").layers[-1].size_bytes
        assert (lean.bytes, lean.joined) == (top, False)
        assert rt.stats()["bytes_pulled"] == root.size_bytes + top
        assert rt.stats()["layers_in_flight"] == 2


class TestMemoryLimit:
    def test_oom_kill(self):
        # The course default is 8 GB; this program declares 12 GB.
        c = build_container(marker="// @rai-sim quality=0.5 mem_gb=12")
        result = c.exec_line("./ece408 /data/test10.hdf5 /data/model.hdf5")
        assert result.exit_code == 137
        assert "oom" in result.error
        assert c.state is ContainerState.OOM_KILLED

    def test_within_limit_survives(self):
        c = build_container(marker="// @rai-sim quality=0.5 mem_gb=4")
        result = c.exec_line("./ece408 /data/test10.hdf5 /data/model.hdf5")
        assert result.exit_code == 0
        assert c.peak_memory == pytest.approx(4 * 2**30)

    def test_raised_limit_allows_more(self):
        limits = ResourceLimits(memory_bytes=16 * 2**30)
        c = build_container(limits=limits,
                            marker="// @rai-sim quality=0.5 mem_gb=12")
        result = c.exec_line("./ece408 /data/test10.hdf5 /data/model.hdf5")
        assert result.exit_code == 0


class TestLifetimeLimit:
    def test_timeout_kill(self):
        limits = ResourceLimits(max_lifetime_seconds=100.0)
        c = build_container(limits=limits)
        result = c.exec_line("sleep 200")
        assert result.exit_code == 124
        assert c.state is ContainerState.TIMED_OUT

    def test_hang_marker_hits_lifetime_cap(self):
        limits = ResourceLimits(max_lifetime_seconds=60.0)
        c = build_container(limits=limits,
                            marker="// @rai-sim runtime=hang")
        result = c.exec_line("./ece408 /data/test10.hdf5 /data/model.hdf5")
        assert result.exit_code == 124

    def test_lifetime_accumulates_across_commands(self):
        limits = ResourceLimits(max_lifetime_seconds=10.0)
        c = build_container(limits=limits)
        assert c.exec_line("sleep 6").exit_code == 0
        assert c.exec_line("sleep 6").exit_code == 124


class TestNetworkIsolation:
    def test_network_denied_by_default(self):
        c = build_container()
        result = c.exec_line("wget http://example.com/x")
        assert result.exit_code == 101

    def test_phone_home_program_denied(self):
        c = build_container(
            marker="// @rai-sim quality=0.5 net=phone-home")
        result = c.exec_line("./ece408 /data/test10.hdf5 /data/model.hdf5")
        assert result.exit_code == 101

    def test_network_can_be_enabled_by_config(self):
        limits = ResourceLimits(network_enabled=True)
        c = build_container(limits=limits)
        assert c.exec_line("wget http://example.com/x").exit_code == 0


class TestOutputLimit:
    def test_log_flood_is_killed(self):
        limits = ResourceLimits(max_output_bytes=1024)
        c = build_container(limits=limits)
        result = c.exec_line("echo " + "x" * 2000)
        assert result.exit_code == 137


class TestLimitsValidation:
    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            ResourceLimits(memory_bytes=0)
        with pytest.raises(ValueError):
            ResourceLimits(max_lifetime_seconds=-1)

    def test_paper_defaults(self):
        limits = ResourceLimits()
        assert limits.memory_bytes == 8 * 2**30
        assert limits.max_lifetime_seconds == 3600.0
        assert not limits.network_enabled


class TestOutputStreaming:
    def test_on_output_callback_receives_streams(self):
        rt = ContainerRuntime()
        seen = []
        c = rt.create_container(
            "webgpu/rai:root",
            on_output=lambda stream, text: seen.append((stream, text)))
        c.start()
        c.exec_line("echo to-stdout")
        c.exec_line("cat /missing")
        streams = {s for s, _ in seen}
        assert streams == {"stdout", "stderr"}
