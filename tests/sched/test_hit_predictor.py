"""The build-hit predictor asks the cache only once it can answer yes.

``JobScheduler.select`` prices every team head, and a head the build
cache predicts to hit is cheaper.  Until some build has been recorded
(``BuildCache.sources_seen`` is 0) every answer is False, so the
predictor answers without asking per head: a backlog of echo builds
makes no ``seen_source`` call, and dispatches exactly as asking would.
"""

import pytest

from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.storage.buildcache import BuildCache

pytestmark = pytest.mark.sched

ECHO = ("rai:\n  version: 0.1\n  image: webgpu/rai:root\n"
        "commands:\n  build:\n    - echo hi\n")
CMAKE = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def _backlog(monkeypatch, build, always_ask: bool):
    """Eight teams, two jobs each, all queued at once on one slot; returns
    ``(seen_source calls, (finished_at, team) per job in finishing
    order)``."""
    calls = []
    seen_source = BuildCache.seen_source
    monkeypatch.setattr(BuildCache, "seen_source", lambda self, digest:
                        calls.append(digest) or seen_source(self, digest))
    if always_ask:      # as before: every head asks the cache
        monkeypatch.setattr(BuildCache, "sources_seen", property(
            lambda self: 1))
    system = RaiSystem.standard(num_workers=1, seed=9)

    def team(i):
        client = system.new_client(team=f"team{i}")
        client.stage_project(CMAKE)
        if build is not None:
            client.set_build_file(build)
        results = []
        for attempt in range(2):
            if attempt:
                yield system.sim.timeout(system.config.rate_limit_seconds)
            result = yield from client.submit()
            assert result.status is JobStatus.SUCCEEDED
            results.append((result.finished_at, client.team))
        return results

    done = system.run_all(team(i) for i in range(8))
    return calls, sorted(r for results in done for r in results)


def test_no_source_recorded_means_no_per_head_call(monkeypatch):
    calls, order = _backlog(monkeypatch, ECHO, always_ask=False)
    assert calls == []
    monkeypatch.undo()
    asked, asked_order = _backlog(monkeypatch, ECHO, always_ask=True)
    assert asked
    assert order == asked_order


def test_a_recorded_source_turns_the_predictor_on(monkeypatch):
    calls, _ = _backlog(monkeypatch, None, always_ask=False)
    assert calls
