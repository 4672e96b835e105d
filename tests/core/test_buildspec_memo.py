"""The build-spec parse memo shares one immutable spec between jobs."""

import dataclasses

import pytest

from repro.buildspec import (
    DEFAULT_BUILD_YAML,
    RaiBuildSpec,
    command_cacheable,
    parse_build_spec,
)
from repro.buildspec.parser import _parse
from repro.buildspec.spec import PARSE_MEMO_SIZE
from repro.errors import SpecParseError, SpecValidationError

YAML = "rai:\n  version: '0.1'\n  image: webgpu/rai:root\n" \
       "commands:\n  build:\n    - cmake /src\n    - make\n"


class TestSharedSpecIsImmutable:
    def test_one_jobs_spec_cannot_leak_into_the_next(self):
        first = parse_build_spec(YAML)
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.image = "evil/image"
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.build_commands = ("rm -rf /",)
        with pytest.raises(AttributeError):
            first.build_commands.append("rm -rf /")
        second = parse_build_spec(YAML)
        assert second.image == "webgpu/rai:root"
        assert second.build_commands == ("cmake /src", "make")

    def test_constructor_freezes_a_callers_list(self):
        commands = ["make"]
        spec = RaiBuildSpec(version="0.1", image="i", build_commands=commands)
        commands.append("later")
        assert spec.build_commands == ("make",)
        assert spec == RaiBuildSpec(version="0.1", image="i",
                                    build_commands=("make",))

    def test_validation_is_not_memoised(self):
        """``validate`` depends on the deployment (whitelist), so it runs
        per job on the shared spec."""
        spec = parse_build_spec(YAML)
        spec.validate(image_whitelist=["webgpu/rai:root"])
        with pytest.raises(SpecValidationError):
            parse_build_spec(YAML).validate(image_whitelist=["other"])
        spec.validate(image_whitelist=["webgpu/rai:root"])


class TestMemo:
    def test_same_text_is_parsed_once(self):
        text = YAML + "# parsed once\n"
        before = _parse.cache_info()
        assert parse_build_spec(text) is parse_build_spec(text)
        after = _parse.cache_info()
        assert after.misses == before.misses + 1
        assert after.hits == before.hits + 1

    def test_errors_are_raised_afresh_and_equal(self):
        messages = []
        for _ in range(2):
            with pytest.raises(SpecParseError) as info:
                parse_build_spec("rai: {version: '0.1'}\ncommands: {}\n")
            messages.append(str(info.value))
        assert messages[0] == messages[1] == "rai.image is required"

    def test_non_text_is_a_typed_error(self):
        with pytest.raises(SpecParseError):
            parse_build_spec(["not", "text"])

    def test_memo_is_bounded(self):
        for i in range(PARSE_MEMO_SIZE + 8):
            parse_build_spec(YAML + f"# variant {i}\n")
            command_cacheable(f"make target{i}")
        assert _parse.cache_info().currsize == PARSE_MEMO_SIZE
        assert command_cacheable.cache_info().currsize == PARSE_MEMO_SIZE
        # Evicted texts parse again to an equal spec.
        assert parse_build_spec(YAML + "# variant 0\n") == \
            parse_build_spec(YAML)

    def test_command_cacheable_answers_are_unchanged_by_the_memo(self):
        for _ in range(2):
            assert command_cacheable("cmake /src && make")
            assert not command_cacheable("make && ./ece408")
            assert not command_cacheable("make 'unterminated")


def test_two_jobs_with_one_build_file_both_run(system, client):
    """End to end: the second job reuses the first's parsed spec."""
    client.project_fs.write_file("/rai-build.yml", DEFAULT_BUILD_YAML)
    first = system.run(client.submit())
    system.run(until=system.sim.now + system.config.rate_limit_seconds + 1)
    second = system.run(client.submit())
    assert first.status.value == second.status.value == "succeeded"
