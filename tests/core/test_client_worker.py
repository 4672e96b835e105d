"""Client↔worker protocol tests over a full in-sim deployment."""

import pytest

from repro.buildspec import FINAL_SUBMISSION_YAML
from repro.core.job import JobKind, JobStatus
from repro.core.system import RaiSystem
from repro.errors import SubmissionRejected

GOOD_FILES = {
    "main.cu": "// @rai-sim quality=0.85 impl=analytic\nint main(){}\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}
FINAL_FILES = dict(GOOD_FILES, USAGE="run make", **{
    "report.pdf": b"%PDF-1.4 final report"})


class TestDevelopmentRun:
    def test_happy_path(self, system, client):
        result = system.run(client.submit())
        assert result.status is JobStatus.SUCCEEDED
        assert result.exit_code == 0
        assert "Building project" in result.stdout_text()
        assert result.internal_time is not None
        assert result.correctness == 1.0
        assert result.worker_id is not None

    def test_default_build_file_used_when_absent(self, system, client):
        result = system.run(client.submit())
        # Listing 1's nvprof step ran and produced the timeline artifact.
        blob = client.download_build(result)
        from repro.vfs import archive_member_names

        assert "timeline.nvprof" in archive_member_names(blob)

    def test_custom_build_file_respected(self, system, client):
        client.set_build_file("""\
rai:
  version: 0.1
  image: webgpu/rai:root
commands:
  build:
    - echo custom-step-ran
""")
        result = system.run(client.submit())
        assert "custom-step-ran" in result.stdout_text()

    def test_empty_project_rejected(self, system):
        client = system.new_client(team="t")
        result = system.run(client.submit())
        assert result.status is JobStatus.REJECTED

    def test_build_archive_roundtrip(self, system, client):
        result = system.run(client.submit())
        blob = client.download_build(result)
        from repro.vfs import VirtualFileSystem, unpack_tree

        fs = VirtualFileSystem()
        unpack_tree(blob, fs, "/")
        assert fs.isfile("/ece408")

    def test_submission_recorded_in_database(self, system, client):
        result = system.run(client.submit())
        doc = system.db.collection("submissions").find_one(
            {"job_id": result.job_id})
        assert doc["status"] == "succeeded"
        assert doc["team"] == "test-team"
        assert doc["internal_time"] == pytest.approx(result.internal_time)

    def test_log_timestamps_monotonic(self, system, client):
        result = system.run(client.submit())
        times = [t for t, _, _ in result.log]
        assert times == sorted(times)

    def test_on_line_callback_streams(self, system):
        lines = []
        client = system.new_client(
            team="t", on_line=lambda stream, text: lines.append(text))
        client.stage_project(GOOD_FILES)
        system.run(client.submit())
        assert any("Building project" in text for text in lines)


class TestFailureModes:
    def test_compile_error_fails_job(self, system, client):
        client.stage_project(
            {"main.cu": "// @rai-sim compile=error\n",
             "CMakeLists.txt": "add_executable(ece408 main.cu)\n"},
            clear=True)
        result = system.run(client.submit())
        assert result.status is JobStatus.FAILED
        assert "error:" in result.stderr_text()

    def test_crash_fails_job(self, system, client):
        client.stage_project(
            {"main.cu": "// @rai-sim runtime=crash\n",
             "CMakeLists.txt": "x\n"}, clear=True)
        result = system.run(client.submit())
        assert result.status is JobStatus.FAILED
        assert result.exit_code == 139

    def test_commands_after_failure_not_run(self, system, client):
        client.set_build_file("""\
rai:
  version: 0.1
  image: webgpu/rai:root
commands:
  build:
    - false
    - echo after-failure
""")
        result = system.run(client.submit())
        assert result.status is JobStatus.FAILED
        assert "after-failure" not in result.stdout_text()

    def test_bad_credentials_rejected_client_side(self, system, client):
        client.profile = type(client.profile)(
            username=client.username, access_key="forged",
            secret_key="forged")
        result = system.run(client.submit())
        assert result.status is JobStatus.REJECTED

    def test_tampered_signature_rejected_by_worker(self, system, client):
        """Bypass the client checks; the worker must still verify."""
        from repro.core.job import Job, JobKind

        cred = system.keystore.lookup(client.profile.access_key)
        from repro.vfs import pack_tree

        blob = pack_tree(client.project_fs, "/")
        system.storage.put_object(system.config.upload_bucket,
                                  "u/forged.tar.bz2", blob)
        job = Job(id="job-forged", kind=JobKind.RUN,
                  username=client.username, team="t",
                  upload_bucket=system.config.upload_bucket,
                  upload_key="u/forged.tar.bz2",
                  spec_yaml=FINAL_SUBMISSION_YAML,
                  access_key=cred.access_key,
                  signature="not-a-valid-signature",
                  submitted_at=system.sim.now)

        from repro.broker.client import Consumer

        consumer = Consumer(system.broker, "log_job-forged/#ch")
        system.broker.publish("rai", job.to_message())

        def wait_end(sim):
            while True:
                msg = yield consumer.get()
                consumer.ack(msg)
                if msg.body["type"] == "end":
                    return msg.body["status"]

        status = system.run(wait_end(system.sim))
        assert status == "rejected"

    def test_unwhitelisted_image_rejected(self, system, client):
        client.set_build_file("""\
rai:
  version: 0.1
  image: sketchy/custom:latest
commands:
  build: [echo hi]
""")
        result = system.run(client.submit())
        assert result.status is JobStatus.REJECTED
        assert "whitelist" in result.stderr_text()

    def test_rate_limit_rejects_fast_resubmit(self, system, client):
        first = system.run(client.submit())
        assert first.status is JobStatus.SUCCEEDED
        # Force an immediate retry (first run took > 30 simulated seconds
        # of turnaround, so rewind the limiter instead of the clock).
        system.rate_limiter._last_accepted[client.team] = system.sim.now
        second = system.run(client.submit())
        assert second.status is JobStatus.REJECTED
        assert "rate limited" in second.error


class TestFinalSubmission:
    def test_requires_usage_and_report(self, system, client):
        result = system.run(client.submit(JobKind.SUBMIT))
        assert result.status is JobStatus.REJECTED
        assert "USAGE" in result.error

    def test_final_flow_records_ranking(self, system):
        client = system.new_client(team="finals-team")
        client.stage_project(FINAL_FILES)
        result = system.run(client.submit(JobKind.SUBMIT))
        assert result.status is JobStatus.SUCCEEDED
        assert result.rank == 1
        row = system.ranking.leaderboard()[0]
        assert row["team"] == "finals-team"
        assert row["internal_time"] == pytest.approx(result.internal_time)
        # instructor (time-command) figure recorded separately
        assert row["instructor_time"] >= row["internal_time"] * 0.9

    def test_students_build_file_ignored_for_finals(self, system):
        """§V: 'the student's local rai-build.yaml file is ignored'."""
        client = system.new_client(team="sneaky")
        client.stage_project(FINAL_FILES)
        client.set_build_file("""\
rai:
  version: 0.1
  image: webgpu/rai:root
commands:
  build: [echo skipping-the-benchmark]
""")
        result = system.run(client.submit(JobKind.SUBMIT))
        assert "skipping-the-benchmark" not in result.stdout_text()
        assert "Submitting project" in result.stdout_text()
        blob = client.download_build(result)
        from repro.vfs import archive_member_names

        names = archive_member_names(blob)
        assert any(n.startswith("submission_code") for n in names)

    def test_final_uses_full_dataset(self, system):
        client = system.new_client(team="t")
        client.stage_project(FINAL_FILES)
        result = system.run(client.submit(JobKind.SUBMIT))
        assert "10000 images" in result.stdout_text()


class TestConcurrency:
    def test_two_workers_share_queue(self):
        system = RaiSystem.standard(num_workers=2, seed=3)
        clients = []
        for i in range(4):
            c = system.new_client(team=f"team-{i}")
            c.stage_project(GOOD_FILES)
            clients.append(c)
        results = system.run_all([c.submit() for c in clients])
        assert all(r.status is JobStatus.SUCCEEDED for r in results)
        workers_used = {r.worker_id for r in results}
        assert len(workers_used) == 2

    def test_queue_drains_with_single_worker(self):
        system = RaiSystem.standard(num_workers=1, seed=3)
        clients = []
        for i in range(3):
            c = system.new_client(team=f"team-{i}")
            c.stage_project(GOOD_FILES)
            clients.append(c)
        results = system.run_all([c.submit() for c in clients])
        assert all(r.succeeded for r in results)
        # With one worker, later jobs wait longer.
        waits = sorted(r.queue_wait for r in results)
        assert waits[-1] > waits[0]
