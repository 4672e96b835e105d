"""Unit tests for RaiSystem wiring and worker management."""

import pytest

from repro.cluster import Autoscaler, AutoscalerPolicy, Provisioner
from repro.core.config import SystemConfig, WorkerConfig
from repro.core.system import RaiSystem


class TestWiring:
    def test_standard_has_buckets_and_rules(self, system):
        uploads = system.storage.bucket(system.config.upload_bucket)
        builds = system.storage.bucket(system.config.build_bucket)
        assert uploads.lifecycle_rules[0].since == "last_use"
        assert builds.lifecycle_rules[0].since == "creation"

    def test_new_client_issues_working_credentials(self, system):
        client = system.new_client(team="t", username="alice")
        cred = system.keystore.verify_pair(client.profile.access_key,
                                           client.profile.secret_key)
        assert cred.team == "t"

    def test_usernames_autogenerated_unique(self, system):
        a = system.new_client()
        b = system.new_client()
        assert a.username != b.username

    def test_custom_config(self):
        config = SystemConfig(rate_limit_seconds=5.0)
        system = RaiSystem(config=config)
        assert system.rate_limiter.window_seconds == 5.0

    def test_stats_shape(self, system):
        stats = system.stats()
        assert stats["workers"]["total"] == 2
        assert "storage" in stats and "database" in stats


class TestWorkerManagement:
    def test_add_worker(self, system):
        before = len(system.workers)
        worker = system.add_worker(WorkerConfig(gpu_model="K40"))
        assert len(system.workers) == before + 1
        assert worker.gpu.name.startswith("Tesla K40")

    def test_remove_worker_stops_it(self, system):
        worker = system.workers[0]
        system.remove_worker(worker)
        assert not worker.is_running
        assert worker not in system.running_workers

    def test_remove_without_argument_picks_running(self, system):
        system.remove_worker()
        assert len(system.running_workers) == 1

    def test_stopped_worker_does_not_take_jobs(self, system, client):
        for worker in list(system.workers):
            system.remove_worker(worker)
        fresh = system.add_worker()
        result = system.run(client.submit())
        assert result.worker_id == fresh.id

    def test_worker_utilization_tracked(self, system, client):
        system.run(client.submit())
        total = sum(w.busy_seconds for w in system.workers)
        assert total > 0

    def test_queue_depth_zero_when_idle(self, system):
        assert system.queue_depth() == 0


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def run_once():
            system = RaiSystem.standard(num_workers=1, seed=99)
            client = system.new_client(team="t")
            client.stage_project({
                "main.cu": "// @rai-sim quality=0.7 impl=analytic\n",
                "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
            })
            result = system.run(client.submit())
            return (result.internal_time, result.turnaround,
                    result.status.value)

        assert run_once() == run_once()

    def test_different_seeds_differ_in_noise(self):
        def run_once(seed):
            system = RaiSystem.standard(num_workers=1, seed=seed)
            client = system.new_client(team="t")
            client.stage_project({
                "main.cu": "// @rai-sim quality=0.7 impl=analytic\n",
                "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
            })
            return system.run(client.submit()).turnaround

        assert run_once(1) != run_once(2)


class TestPeriodicStarters:
    """A zero period would loop forever at one sim instant: every
    perpetual-process starter refuses it when called, before the
    simulator ever runs."""

    @pytest.mark.parametrize("start", [
        lambda s: s.start_dead_letter_consumer(interval=0),
        lambda s: s.start_checkpointer(interval=0),
        lambda s: s.start_caretaker(interval=0),
        lambda s: s.storage.lifecycle_sweeper(interval=-1.0),
        lambda s: Autoscaler(s, Provisioner(s),
                             AutoscalerPolicy(check_interval=0)),
    ], ids=["dead_letter_consumer", "checkpointer", "caretaker",
            "lifecycle_sweeper", "autoscaler"])
    def test_non_positive_interval_rejected(self, start):
        system = RaiSystem.standard(num_workers=1)
        with pytest.raises(ValueError, match="interval must be positive"):
            start(system)
