"""Tier-1 guard on the per-job floor: broker messages and shell parses.

A Listing 1 resubmission costs exactly ten broker messages: the task,
``accepted``, ``running``, one ``log`` per command (its announcement and
all it wrote), ``build`` and ``end``.  Its command lines were tokenised by
the first job and are not tokenised again.  A write larger than the
broker's message limit arrives split, and the job still succeeds.
"""

import pytest

from repro.buildspec.defaults import default_build_spec
from repro.container.shell import split_sequence, tokenize
from repro.core.job import JobStatus
from repro.core.system import RaiSystem

pytestmark = pytest.mark.perf

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\nint main(){}\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def log_bodies(system, job_id, into):
    """Record every body published on ``job_id``'s log topic."""
    publish = system.broker.publish

    def recording(topic, body, headers=None):
        if topic == f"log_{job_id}":
            into.append(body)
        return publish(topic, body, headers)
    return recording


def test_listing1_resubmission_is_ten_messages_and_no_parse(monkeypatch):
    system = RaiSystem.standard(num_workers=1, seed=7)
    client = system.new_client(team="t")
    client.stage_project(FILES)
    assert system.run(client.submit()).succeeded
    system.run(until=system.sim.now + 60)       # past the rate limit
    before = system.broker.counters.get("messages_published")
    parses = split_sequence.cache_info(), tokenize.cache_info()
    bodies = []
    monkeypatch.setattr(system.broker, "publish",
                        log_bodies(system, "job-000002", bodies))
    result = system.run(client.submit())
    assert result.job_id == "job-000002" and result.succeeded
    assert system.broker.counters.get("messages_published") - before == 10
    assert [body["type"] for body in bodies] == \
        ["status", "status"] + ["log"] * 5 + ["build", "end"]
    assert tuple(body["command"] for body in bodies[2:7]) == \
        default_build_spec().build_commands
    after = split_sequence.cache_info(), tokenize.cache_info()
    for memo_before, memo_after in zip(parses, after):
        assert memo_after.misses == memo_before.misses
        assert memo_after.hits > memo_before.hits


def test_a_write_over_the_message_limit_arrives_split():
    """A 2 MiB ``cat`` once raised ``MessageTooLarge`` out of the run."""
    big = ("0123456789abcdef" * 64 + "\n") * 2048
    system = RaiSystem.standard(num_workers=1, seed=7)
    system.run(until=60.0)      # the boot pull is done: no pull notice
    client = system.new_client(team="t")
    client.stage_project({"big.txt": big, "rai-build.yml": (
        "rai:\n  version: '0.1'\n  image: webgpu/rai:root\n"
        "commands:\n  build:\n    - cat /src/big.txt\n")})
    result = system.run(client.submit())
    assert len(big) > 2 * 2 ** 20
    assert result.status is JobStatus.SUCCEEDED
    assert result.stdout_text() == big
    assert len(result.log) > 1
