"""End-to-end tracing: one submission = one trace across every tier."""

import pytest

from repro.core.cli import RaiCLI
from repro.core.config import SystemConfig
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.obs.waterfall import (
    critical_path,
    critical_path_report,
    render_trace_report,
)

pytestmark = pytest.mark.obs

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\nint main(){}\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


@pytest.fixture
def traced_run():
    system = RaiSystem.standard(num_workers=1, seed=21)
    client = system.new_client(team="trace-team")
    client.stage_project(FILES)
    result = system.run(client.submit())
    assert result.status is JobStatus.SUCCEEDED
    return system, result


class TestSingleSubmissionTrace:
    def test_one_trace_covers_every_tier(self, traced_run):
        system, result = traced_run
        trace = system.tracer.store.trace_for_job(result.job_id)
        assert trace is not None
        names = {s.name for s in trace.spans}
        # client → broker → worker → container → storage → docdb.
        assert {"client.submit", "client.upload", "client.publish",
                "broker.deliver", "worker.job", "buildspec.parse",
                "storage.get", "container.run", "container.exec",
                "storage.put", "docdb.record",
                "result.publish"} <= names
        # Exactly one trace for the whole submission.
        assert len({s.trace_id for s in trace.spans}) == 1

    def test_parent_child_nesting(self, traced_run):
        system, result = traced_run
        trace = system.tracer.store.trace_for_job(result.job_id)

        def parent_of(span):
            return next(s for s in trace.spans if s.span_id == span.parent_id)

        root = trace.root()
        assert root.name == "client.submit"
        assert root.parent_id is None

        publish = [s for s in trace.spans if s.name == "client.publish"][0]
        assert parent_of(publish) is root

        deliver = [s for s in trace.spans if s.name == "broker.deliver"][0]
        assert parent_of(deliver) is publish

        worker_job = [s for s in trace.spans if s.name == "worker.job"][0]
        assert parent_of(worker_job) is deliver

        for name in ("buildspec.parse", "storage.get", "container.run",
                     "storage.put", "docdb.record", "result.publish"):
            span = next(s for s in trace.spans if s.name == name)
            assert parent_of(span) is worker_job, name

        for exec_span in (s for s in trace.spans
                          if s.name == "container.exec"):
            assert parent_of(exec_span).name == "container.run"

    def test_sim_clock_timestamps(self, traced_run):
        system, result = traced_run
        trace = system.tracer.store.trace_for_job(result.job_id)
        root = trace.root()
        for span in trace.spans:
            assert not span.is_open
            assert span.end_time >= span.start_time
            assert span.start_time >= root.start_time
            assert span.end_time <= root.end_time
        # The trace spans real simulated time, not wall-clock zero.
        assert root.end_time - root.start_time > 1.0

    def test_key_attributes_and_events(self, traced_run):
        system, result = traced_run
        trace = system.tracer.store.trace_for_job(result.job_id)
        worker_job = [s for s in trace.spans if s.name == "worker.job"][0]
        assert worker_job.attributes["job_id"] == result.job_id
        assert worker_job.attributes["attempt"] == 1
        assert worker_job.attributes["status"] == "succeeded"
        upload = [s for s in trace.spans if s.name == "client.upload"][0]
        assert any(e[1] == "chunk.negotiation" for e in upload.events)
        for exec_span in (s for s in trace.spans
                          if s.name == "container.exec"):
            assert exec_span.attributes["exit_code"] == 0

    def test_critical_path_identifies_dominant_stage(self, traced_run):
        system, result = traced_run
        trace = system.tracer.store.trace_for_job(result.job_id)
        path = critical_path(trace)
        assert path[0].name == "client.submit"
        assert "worker.job" in [s.name for s in path]
        report = critical_path_report(trace)
        # The cold image pull dominates this run, and it is worker time —
        # not mis-attributed to the waiting client.
        assert report["dominant"]["name"] == "worker.job"
        assert report["total_s"] == pytest.approx(
            trace.end_time() - trace.start_time())

    def test_render_and_cli(self, traced_run):
        system, result = traced_run
        text = render_trace_report(
            system.tracer.store.trace_for_job(result.job_id))
        assert "client.submit" in text
        assert "critical path" in text
        assert "◀ dominant" in text

        client = system.new_client(team="cli-team")
        client.stage_project(FILES)
        cli = RaiCLI(system, client)
        cli.run_command("rai run")
        out = cli.run_command("rai trace")
        assert "worker.job" in out
        by_id = cli.run_command(f"rai trace {result.job_id}")
        assert result.job_id in by_id
        assert "no trace recorded" in cli.run_command("rai trace job-999999")

class TestTracingDisabled:
    def test_disabled_records_nothing_same_outcome(self):
        config = SystemConfig(observers_enabled=False)
        system = RaiSystem.standard(num_workers=1, seed=21, config=config)
        client = system.new_client(team="trace-team")
        client.stage_project(FILES)
        result = system.run(client.submit())
        assert result.status is JobStatus.SUCCEEDED
        assert len(system.tracer.store) == 0
        assert system.tracer.store.trace_for_job(result.job_id) is None
        cli = RaiCLI(system, client)
        assert "disabled" in cli.run_command(f"rai trace {result.job_id}")


class TestRegistryFeedsSystem:
    def test_gauges_and_broker_counters_share_registry(self, traced_run):
        system, result = traced_run
        # The four deployment gauges exist and are callback-backed.
        for name in ("queue_depth", "workers_running", "jobs_active",
                     "in_flight"):
            gauge = system.metrics.get(name)
            assert gauge is not None and gauge.fn is not None, name
        assert system.metrics.value("workers_running") == 1
        # Broker tallies live in the same registry, prefixed.
        assert system.metrics.value("broker_messages_published") > 0
        assert system.broker.total_bytes_published == \
            system.metrics.value("broker_bytes_published")
        # The tracer counts its own spans, one trace for the run.
        traces = system.tracer.stats()
        assert traces["spans_total"] == system.tracer.store.total_spans > 0
        assert traces["traces"] == 1
        # The client saw the run through to its End.
        assert result.turnaround is not None and result.turnaround > 0
