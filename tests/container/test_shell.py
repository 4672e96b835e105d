"""Unit tests for the guest shell."""

import pytest

from repro.container import ContainerRuntime
from repro.container.shell import expand_variables, split_sequence


@pytest.fixture
def container():
    rt = ContainerRuntime()
    c = rt.create_container("webgpu/rai:root")
    c.start()
    return c


class TestSplitSequence:
    def test_single_command(self):
        assert split_sequence("echo hi") == (("", "echo hi"),)

    def test_and_chain(self):
        assert split_sequence("a && b && c") == \
            (("", "a"), ("&&", "b"), ("&&", "c"))

    def test_semicolon(self):
        assert split_sequence("a ; b") == (("", "a"), (";", "b"))

    def test_quoted_separators_ignored(self):
        assert split_sequence('echo "a && b"') == (("", 'echo "a && b"'),)
        assert split_sequence("echo 'x;y'") == (("", "echo 'x;y'"),)

    def test_empty_segments_dropped(self):
        assert split_sequence("a && ") == (("", "a"),)


class TestExpandVariables:
    def test_simple_and_braced(self):
        env = {"HOME": "/root", "X": "1"}
        assert expand_variables("$HOME/file", env) == "/root/file"
        assert expand_variables("${X}y", env) == "1y"

    def test_missing_is_empty(self):
        assert expand_variables("$GHOST", {}) == ""


class TestShellExecution:
    def test_echo(self, container):
        result = container.exec_line('echo "Building project"')
        assert result.exit_code == 0
        assert result.stdout == "Building project\n"

    def test_and_short_circuits(self, container):
        result = container.exec_line("false && echo unreachable")
        assert result.exit_code == 1
        assert "unreachable" not in result.stdout

    def test_semicolon_continues(self, container):
        result = container.exec_line("false ; echo still-here")
        assert "still-here" in result.stdout

    def test_unknown_command_127(self, container):
        result = container.exec_line("frobnicate --now")
        assert result.exit_code == 127
        assert "command not found" in result.stderr

    def test_env_expansion_in_commands(self, container):
        result = container.exec_line("echo $SRC_DIR")
        assert result.stdout == "/src\n"

    def test_assignment_then_use(self, container):
        container.exec_line("FOO=bar")
        assert container.exec_line("echo $FOO").stdout == "bar\n"

    def test_export(self, container):
        container.exec_line("export MYVAR=42")
        assert container.exec_line("echo $MYVAR").stdout == "42\n"

    def test_redirect_to_file(self, container):
        container.exec_line("echo captured > /build/out.txt")
        assert container.fs.read_text("/build/out.txt") == "captured\n"

    def test_redirect_append(self, container):
        container.exec_line("echo one > /build/log")
        container.exec_line("echo two >> /build/log")
        assert container.fs.read_text("/build/log") == "one\ntwo\n"

    def test_redirect_relative_to_cwd(self, container):
        container.exec_line("echo x > rel.txt")
        assert container.fs.isfile("/build/rel.txt")

    def test_cd_builtin(self, container):
        container.exec_line("cd /tmp")
        assert container.exec_line("pwd").stdout == "/tmp\n"

    def test_cd_missing_dir_fails(self, container):
        result = container.exec_line("cd /nonexistent")
        assert result.exit_code == 1

    def test_absolute_path_resolves_by_basename(self, container):
        result = container.exec_line("/bin/echo via-path")
        assert result.stdout == "via-path\n"

    def test_parse_error_reported(self, container):
        result = container.exec_line('echo "unterminated')
        assert result.exit_code == 2

    def test_executable_file_runs_as_program(self, container):
        container.fs.write_file(
            "/build/tool", b'#!rai-exec nvidia-smi\n{}', executable=True)
        result = container.exec_line("./tool")
        # no GPU mounted in this fixture: nvidia-smi reports failure
        assert result.exit_code == 6

    def test_non_rai_binary_refused(self, container):
        container.fs.write_file("/build/blob", b"\x7fELF junk")
        result = container.exec_line("./blob")
        assert result.exit_code == 126
