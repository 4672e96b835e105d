"""Unit tests for the coreutils guest commands."""

import pytest

from repro.container import ContainerRuntime, VolumeMount
from repro.vfs import VirtualFileSystem


@pytest.fixture
def container():
    rt = ContainerRuntime()
    project = VirtualFileSystem()
    project.import_mapping({"main.cu": "code", "sub/extra.h": "hdr"})
    c = rt.create_container(
        "webgpu/rai:root",
        mounts=[VolumeMount("/src", read_only=True, source_fs=project)])
    c.start()
    return c


class TestEchoCat:
    def test_echo_n(self, container):
        assert container.exec_line("echo -n no-newline").stdout == \
            "no-newline"

    def test_cat_file(self, container):
        assert container.exec_line("cat /src/main.cu").stdout == "code"

    def test_cat_missing(self, container):
        result = container.exec_line("cat /src/ghost")
        assert result.exit_code == 1
        assert "No such file" in result.stderr

    def test_cat_multiple(self, container):
        out = container.exec_line("cat /src/main.cu /src/sub/extra.h")
        assert out.stdout == "codehdr"


class TestLs:
    def test_ls_dir(self, container):
        assert container.exec_line("ls /src").stdout == "main.cu\nsub\n"

    def test_ls_long(self, container):
        out = container.exec_line("ls -l /src").stdout
        assert "main.cu" in out and "d" in out

    def test_ls_missing(self, container):
        assert container.exec_line("ls /ghost").exit_code == 2


class TestCp:
    def test_cp_file(self, container):
        container.exec_line("cp /src/main.cu /build/copy.cu")
        assert container.fs.read_text("/build/copy.cu") == "code"

    def test_cp_dir_requires_r(self, container):
        result = container.exec_line("cp /src /build/srccopy")
        assert result.exit_code == 1

    def test_cp_r_tree(self, container):
        """Listing 2's `cp -r /src /build/submission_code`."""
        container.exec_line("cp -r /src /build/submission_code")
        assert container.fs.read_text(
            "/build/submission_code/main.cu") == "code"
        assert container.fs.read_text(
            "/build/submission_code/sub/extra.h") == "hdr"

    def test_cp_missing_source(self, container):
        assert container.exec_line("cp /ghost /build/x").exit_code == 1


class TestRmMvMkdir:
    def test_rm_file(self, container):
        container.exec_line("echo x > /build/f")
        container.exec_line("rm /build/f")
        assert not container.fs.exists("/build/f")

    def test_rm_dir_needs_r(self, container):
        container.exec_line("mkdir /build/d")
        assert container.exec_line("rm /build/d").exit_code == 1
        assert container.exec_line("rm -r /build/d").exit_code == 0

    def test_rm_f_quiet_on_missing(self, container):
        assert container.exec_line("rm -f /build/ghost").exit_code == 0

    def test_rm_readonly_mount_protected(self, container):
        """-f must not override the read-only /src mount."""
        result = container.exec_line("rm -rf /src/main.cu")
        assert result.exit_code == 1
        assert "Read-only" in result.stderr
        assert container.fs.isfile("/src/main.cu")

    def test_mv(self, container):
        container.exec_line("echo x > /build/a")
        container.exec_line("mv /build/a /build/b")
        assert not container.fs.exists("/build/a")
        assert container.fs.isfile("/build/b")

    def test_mkdir_p(self, container):
        assert container.exec_line("mkdir -p /build/x/y/z").exit_code == 0
        assert container.fs.isdir("/build/x/y/z")

    def test_mkdir_existing_fails_without_p(self, container):
        container.exec_line("mkdir /build/d")
        assert container.exec_line("mkdir /build/d").exit_code == 1


class TestMisc:
    def test_pwd_default_is_build(self, container):
        assert container.exec_line("pwd").stdout == "/build\n"

    def test_touch(self, container):
        container.exec_line("touch /build/marker")
        assert container.fs.isfile("/build/marker")

    def test_env_lists_variables(self, container):
        out = container.exec_line("env").stdout
        assert "SRC_DIR=/src" in out

    def test_sleep_charges_time(self, container):
        result = container.exec_line("sleep 12.5")
        assert result.sim_duration == pytest.approx(12.5)

    def test_sleep_bad_arg(self, container):
        assert container.exec_line("sleep forever").exit_code == 1

    def test_hostname_is_container_id(self, container):
        assert container.exec_line("hostname").stdout == \
            container.id + "\n"

    def test_wc(self, container):
        container.exec_line("echo 'a b' > /build/f")
        out = container.exec_line("wc -l /build/f").stdout
        assert out.startswith("1 ")

    def test_network_clients_denied(self, container):
        for tool in ("wget", "curl"):
            result = container.exec_line(f"{tool} http://example.com")
            assert result.exit_code == 101
            assert "network" in (result.error or "").lower()
