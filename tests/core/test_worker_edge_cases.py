"""Worker robustness: malformed input, shutdown races, spec extensions."""

import pytest

from repro.broker.broker import MessageBroker
from repro.broker.message import message_id_watermark
from repro.buildspec.parser import render_build_spec
from repro.buildspec.spec import RaiBuildSpec, ResourceRequest
from repro.core.config import WorkerConfig
from repro.core.job import JobStatus
from repro.core.system import RaiSystem

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


class TestMalformedMessages:
    def test_junk_on_task_queue_does_not_kill_worker(self):
        system = RaiSystem.standard(num_workers=1, seed=2)
        system.broker.publish("rai", {"not": "a job"})
        system.broker.publish("rai", [1, 2, 3])
        client = system.new_client(team="t")
        client.stage_project(FILES)
        result = system.run(client.submit())
        assert result.status is JobStatus.SUCCEEDED
        first_sight = [e for e in system.events.query(
            type="worker.malformed_message") if e.fields["attempts"] == 1]
        assert len(first_sight) == 2

    def test_unparseable_spec_rejected_not_crash(self):
        system = RaiSystem.standard(num_workers=1, seed=2)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        client.project_fs.write_file("/rai-build.yml", "rai: [broken")
        # The client falls back?  No: an existing-but-invalid file is sent
        # as-is (the client does not validate, per §V the worker checks).
        result = system.run(client.submit())
        assert result.status is JobStatus.REJECTED

    def test_unsupported_version_rejected_by_worker(self):
        system = RaiSystem.standard(num_workers=1, seed=2)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        client.set_build_file(
            "rai:\n  version: 99.0\n  image: webgpu/rai:root\n"
            "commands:\n  build: [make]\n")
        result = system.run(client.submit())
        assert result.status is JobStatus.REJECTED
        assert "not supported" in result.stderr_text()


class TestResourceSpecExtension:
    def test_resources_section_accepted(self):
        """The §V 'machine requirements' future extension parses and
        travels through the whole pipeline."""
        system = RaiSystem.standard(num_workers=1, seed=2)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        spec = RaiBuildSpec(
            version="0.2", image="webgpu/rai:root",
            build_commands=["cmake /src", "make"],
            resources=ResourceRequest(gpus=1, memory_gb=4.0))
        client.set_build_file(render_build_spec(spec))
        result = system.run(client.submit())
        assert result.status is JobStatus.SUCCEEDED


class TestShutdownRaces:
    def test_stop_idle_worker_requeues_nothing(self):
        system = RaiSystem.standard(num_workers=2, seed=2)
        system.remove_worker()
        system.remove_worker()
        assert system.queue_depth() == 0
        # Jobs submitted now wait in the queue for a future worker.
        client = system.new_client(team="t")
        client.stage_project(FILES)
        proc = system.sim.process(client.submit())
        system.run(until=system.sim.now + 120)
        assert proc.is_alive
        system.add_worker()
        result = system.run(proc)
        assert result.status is JobStatus.SUCCEEDED

    def test_double_stop_is_safe(self):
        system = RaiSystem.standard(num_workers=1, seed=2)
        worker = system.workers[0]
        worker.stop()
        worker.stop()
        assert not worker.is_running

    def test_a_collected_job_finishes_nothing(self, monkeypatch):
        """Closing a job's generator mid-stage (what the garbage collector
        does to an abandoned deployment) publishes no ``End`` and mints no
        message id."""
        system = RaiSystem.standard(num_workers=1, seed=2)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        system.sim.process(client.submit())
        system.run(until=46.0)      # past the boot pull, mid-build
        worker = system.workers[0]
        assert worker.active_jobs == 1
        trace, = system.tracer.store._traces.values()
        assert [s.name for s in trace.spans if s.is_open][-2:] == \
            ["build", "container.exec"]
        published = []
        monkeypatch.setattr(MessageBroker, "publish",
                            lambda broker, *args, **kw: published.append(args))
        watermark = message_id_watermark()
        for proc in worker._executors:
            proc._generator.close()
        assert published == []
        assert message_id_watermark() == watermark
        assert worker.jobs_completed == worker.jobs_failed == 0

    def test_worker_stats_accumulate(self):
        system = RaiSystem.standard(num_workers=1, seed=2)
        client = system.new_client(team="t")
        client.stage_project(FILES)
        system.run(client.submit())
        worker = system.workers[0]
        assert worker.jobs_completed == 1
        assert worker.busy_seconds > 0
        assert 0 < worker.utilization() <= 1


class TestWorkerConfigKnobs:
    def test_concurrency_validation(self):
        with pytest.raises(ValueError):
            WorkerConfig(max_concurrent_jobs=0)

    def test_storage_bandwidth_affects_turnaround(self):
        def run(bandwidth):
            system = RaiSystem(seed=2)
            system.add_worker(WorkerConfig(
                storage_bandwidth_bps=bandwidth))
            client = system.new_client(team="t")
            client.stage_project(FILES)
            client.project_padding_bytes = 50_000_000
            return system.run(client.submit()).turnaround

        assert run(10e6) > run(1000e6)
