"""Focused tests for remaining corners of the core and substrates."""

import pytest

from repro._version import build_info
from repro.core.job import JobStatus
from repro.core.system import RaiSystem

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


class TestVersionStamping:
    def test_build_info_fields(self):
        info = build_info()
        assert {"version", "branch", "commit", "build_date"} <= set(info)

    def test_build_info_returns_copy(self):
        build_info()["commit"] = "mutated"
        assert build_info()["commit"] != "mutated"


class TestUploadExpiredMidQueue:
    def test_missing_upload_rejects_job(self):
        """The archive vanished (lifecycle/expiry race) before a worker
        picked the job up → rejected, not crashed."""
        system = RaiSystem(seed=3)      # no workers yet
        client = system.new_client(team="t")
        client.stage_project(FILES)
        proc = system.sim.process(client.submit())
        system.run(until=system.sim.now + 30)
        # Delete the upload while the job sits in the queue.
        uploads = system.config.upload_bucket
        for key in list(system.storage.bucket(uploads).objects):
            system.storage.delete_object(uploads, key)
        system.add_worker()
        result = system.run(proc)
        assert result.status is JobStatus.REJECTED
        assert "cannot fetch project" in result.stderr_text()


class TestBrokerAccounting:
    def test_bytes_published_tracked(self, sim):
        from repro.broker import MessageBroker

        broker = MessageBroker(sim)
        broker.publish("rai", {"payload": "x" * 100})
        assert broker.total_bytes_published > 100
        assert broker.counters.get("messages_published") == 1


class TestStorageAccounting:
    def test_stats_and_iteration(self, sim):
        from repro.storage import ObjectStore

        store = ObjectStore(sim)
        store.create_bucket("a")
        store.create_bucket("b")
        store.put_object("a", "x/1", b"1234")
        store.put_object("a", "y/2", b"56")
        store.put_object("b", "z", b"789")
        assert store.total_objects == 3
        assert store.total_bytes == 9
        assert sorted(store.bucket("a").objects) == ["x/1", "y/2"]
        stats = store.stats()
        assert stats["buckets"]["a"]["objects"] == 2


class TestDeviceModelBranches:
    def test_cpu_memory_bound_branch(self):
        from repro.gpu.device import CPUDevice

        cpu = CPUDevice(name="c", clock_ghz=100.0, mem_bandwidth_gbs=1.0)
        # Negligible FLOPs, huge traffic: time == bytes / bandwidth.
        t = cpu.time_for(flops=1.0, bytes_moved=2e9)
        assert t == pytest.approx(2.0)

    def test_gpu_efficiency_clamped(self):
        from repro.gpu.device import GPUDevice

        gpu = GPUDevice(name="g", sm_count=1, clock_ghz=1.0,
                        peak_gflops_fp32=1000.0, mem_bandwidth_gbs=100.0,
                        mem_gb=1.0)
        t_over = gpu.time_for(1e9, 0, compute_efficiency=5.0)
        t_unit = gpu.time_for(1e9, 0, compute_efficiency=1.0)
        assert t_over == pytest.approx(t_unit)


class TestStudentProvidedDeterminism:
    def test_gpu_ownership_is_stable_per_student(self):
        from repro.baselines import StudentProvidedSystem
        from repro.baselines.base import BaselineJob

        system = StudentProvidedSystem()
        first = system.submit(BaselineJob(owner="alice"))
        second = system.submit(BaselineJob(owner="alice"))
        assert first.accepted == second.accepted

    def test_ownership_rate_roughly_respected(self):
        from repro.baselines.student_provided import hash_fraction

        fractions = [hash_fraction(f"student{i}") for i in range(500)]
        share = sum(1 for f in fractions if f < 0.3) / len(fractions)
        assert 0.2 < share < 0.4


class TestRateLimitedError:
    def test_retry_after_attribute(self):
        from repro.errors import RateLimited

        exc = RateLimited(retry_after=12.5)
        assert exc.retry_after == 12.5
        assert "12.5" in str(exc)


class TestCourseResultHelpers:
    def test_window_filtering_without_full_run(self):
        from repro.workload.course import CourseConfig, CourseResult

        config = CourseConfig(n_students=6, n_teams=2, duration_days=10)
        result = CourseResult(config=config, system=None,
                              provisioner=None, teams=[])
        day = 24 * 3600.0
        result.submission_times = [0.5 * day, 3 * day, 9.5 * day]
        assert len(result.submissions_in_window(0, 1)) == 1
        assert len(result.last_two_weeks()) == 3   # 10-day course: all
        assert len(result.submissions_in_window(9, 10)) == 1
