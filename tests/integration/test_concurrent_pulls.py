"""Concurrent cold pulls on one worker.

A job claimed while the worker is still pulling its image waits for what
is left of that pull, not for a pull of its own started from its claim,
and the image's bytes are counted once — by the engine and by the
deployment's ``image_bytes_pulled`` counter alike.  With the warm pool on,
the pull in flight is the one the worker began at boot.
"""

import pytest

from repro.container.pool import CREATE_SECONDS
from repro.core import worker
from repro.core.config import WorkerConfig
from repro.core.job import JobStatus
from tests.golden import deployment

pytestmark = pytest.mark.sched

BUILD_YAML = """\
rai:
  version: '0.1'
  image: webgpu/rai:root
commands:
  build:
    - echo ok
"""


def tiny_project(owner):
    return {"rai-build.yml": BUILD_YAML,
            "main.cu": f"// {owner}\nint main() {{ return 0; }}\n"}


@pytest.mark.parametrize("warm_pool_size", [0, 2])
def test_a_job_claimed_mid_pull_waits_only_for_the_rest(warm_pool_size,
                                                       monkeypatch):
    monkeypatch.setattr(worker, "WARM_POOL_SIZE", warm_pool_size)
    config = WorkerConfig(max_concurrent_jobs=2)
    system = deployment(num_workers=1, seed=7, worker_config=config)
    clients = [system.new_client(team=team) for team in ("a", "b")]
    for client in clients:
        client.stage_project(tiny_project(client.team))

    def later(sim):
        yield sim.timeout(20.0)
        return (yield from clients[1].submit())

    first, second = system.run_all([clients[0].submit(),
                                    later(system.sim)])
    assert [first.status, second.status] == [JobStatus.SUCCEEDED] * 2
    # Claimed 20 s into the 42.9 s pull, B is ready when A is.
    assert second.finished_at <= \
        first.finished_at + CREATE_SECONDS + 0.1
    image = system.registry.get("webgpu/rai:root").size_bytes
    assert sum(w.runtime.stats()["bytes_pulled"]
               for w in system.workers) == image
    assert system.workers[0].runtime.stats()["bytes_pulled"] == image
    # Each job's trace says who started the bytes and who waited on them.
    pulls = [pull_event(system, result) for result in (first, second)]
    if warm_pool_size:      # the boot fill started them
        assert pulls == [(0, True), (0, True)]
    else:
        assert pulls == [(image, False), (0, True)]


def pull_event(system, result):
    acquire, = [s for s in system.tracer.store.trace_for_job(
        result.job_id).spans if s.name == "acquire"]
    fields, = [f for _, name, f in acquire.events if name == "image.pull"]
    return fields["started_bytes"], fields["joined"]
