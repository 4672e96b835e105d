"""Unit tests for the rai CLI front end."""

import pytest

from repro.core.cli import RaiCLI
from repro.core.config import WorkerConfig
from repro.core.job import JobKind
from repro.core.system import RaiSystem
from tests.golden import deployment

FILES = {
    "main.cu": "// @rai-sim quality=0.9 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
    "USAGE": "usage",
    "report.pdf": b"%PDF-1.4",
}
ECHO = """\
rai:
  version: '0.1'
  image: webgpu/rai:root
commands:
  build:
    - echo ok
"""


@pytest.fixture
def cli(system):
    client = system.new_client(team="cli-team")
    client.stage_project(FILES)
    return RaiCLI(system, client)


class TestSubcommands:
    def test_run(self, cli):
        out = cli.run_command("rai run")
        assert "succeeded" in out
        assert "Building project" in out

    def test_submit_shows_rank(self, cli, system):
        out = cli.run_command("rai submit")
        assert "succeeded" in out
        assert "ranked #1" in out

    def test_ranking_empty(self, cli):
        assert "No submissions" in cli.run_command("rai ranking")

    def test_ranking_table(self, cli, system):
        cli.run_command("rai submit")
        out = cli.run_command("rai ranking")
        assert "← you" in out
        assert "cli-team" in out

    def test_history(self, cli):
        assert "No jobs" in cli.run_command("rai history")
        cli.run_command("rai run")
        out = cli.run_command("rai history")
        assert "job-" in out and "succeeded" in out

    def test_version_shows_embedded_build_info(self, cli):
        out = cli.run_command("rai version")
        assert "rai version" in out
        assert "built" in out

    def test_help_and_unknown(self, cli):
        assert "usage:" in cli.run_command("rai help")
        assert "unknown subcommand" in cli.run_command("rai frobnicate")
        assert "usage:" in cli.run_command("rai")

    def test_leading_rai_optional(self, cli):
        assert "usage:" in cli.run_command("help")

    def test_download_without_jobs(self, cli):
        assert "No completed jobs" in cli.run_command("rai download")

    def test_download_extracts_build(self, cli):
        cli.run_command("rai run")
        out = cli.run_command("rai download")
        assert "extracted" in out
        job_id = cli.client.history[-1].job_id
        assert cli.client.project_fs.isfile(
            f"/build-{job_id}/timeline.nvprof")

    def test_download_bad_index(self, cli):
        cli.run_command("rai run")
        assert "no such job" in cli.run_command("rai download 99")

    def test_stats_report(self, cli):
        cli.run_command("rai run")
        out = cli.run_command("rai stats")
        assert "deployment health" in out
        assert "jobs completed" in out

    def test_top_idle_fleet(self, cli, system):
        out = cli.run_command("rai top")
        assert "queue=0" in out
        assert "sched wait: p50=-" in out   # no dispatches yet
        assert "warm-pool hit rate" in out
        for worker in system.workers:
            assert worker.id in out
        assert "up" in out

    def test_top_after_jobs(self, cli, system):
        cli.run_command("rai run")
        out = cli.run_command("rai top")
        # Dispatch histogram populated; percentiles render as numbers.
        assert "dispatched=1" in out
        assert "p50=-" not in out
        # Each worker filled its pool at boot, so the first job is a warm
        # hit — one that waited for the image pull and create still under
        # way when it was claimed — and its container is parked again.
        # The pool holds two containers per slot, so the two one-slot
        # workers filled four.
        assert "1/1" in out and "pooled" in out
        assert "hits waited 1/1  filled 4" in out

    def test_top_tells_an_undersized_pool_from_a_cold_one(self):
        """Three teams at once on a one-slot worker, each job a single
        ``echo`` — shorter than a reset.  The slot's two containers are
        filled at boot: the first job takes one while the pull is still
        running, the second takes the other, ready by then, and the third
        waits out what is left of the reset of the one the first returned.
        A pool two deep per slot waits only on jobs shorter than a reset,
        so these are: `hits waited 2/3`, and none was a miss."""
        system = deployment(
            num_workers=1, seed=7,
            worker_config=WorkerConfig(max_concurrent_jobs=1))
        clients = [system.new_client(team=team) for team in ("a", "b", "c")]
        for client in clients:
            client.stage_project(dict(FILES, **{"rai-build.yml": ECHO}))
        system.run_all(c.submit() for c in clients)
        out = RaiCLI(system, clients[0]).run_command("rai top")
        assert "warm-pool hit rate 100%  hits waited 2/3  filled 2" in out

    def test_top_shows_downed_worker(self, cli, system):
        system.workers[0].crash()
        out = cli.run_command("rai top")
        assert "down" in out

    def test_top_listed_in_help(self, cli):
        assert "top" in cli.run_command("rai help")


@pytest.mark.slo
class TestObservabilityCommands:
    """rai slo / rai alerts / rai events close the metric→trace loop."""

    def _burned_system(self):
        """One worker, six queued jobs: most waits blow the 30s bound."""
        from repro.core.system import RaiSystem

        system = RaiSystem.standard(num_workers=1, seed=13)
        system.scraper.scrape_now()  # empty baseline at t=0
        procs = []
        for i in range(6):
            c = system.new_client(team=f"team-{i}")
            c.stage_project(FILES)
            procs.append(system.sim.process(c.submit()))
        for proc in procs:
            system.run(proc)
        return system

    def _obs_cli(self, system):
        from repro.core.cli import RaiCLI

        return RaiCLI(system, system.new_client(team="operator"))

    def test_slo_reports_burn_with_exemplar_traces(self):
        import re

        system = self._burned_system()
        cli = self._obs_cli(system)
        out = cli.run_command("rai slo")
        assert "queue-wait-p95" in out
        assert "burning" in out
        assert "submission-success" in out    # healthy objective shown too
        matches = re.findall(r"— trace (\S+) \(job (\S+)\)", out)
        assert matches, f"no exemplar lines in:\n{out}"
        # Every printed trace id resolves to a waterfall via rai trace.
        for trace_id, job_id in matches:
            report = cli.run_command(f"rai trace {trace_id}")
            assert "no trace recorded" not in report
            assert job_id in report

    def test_alerts_quiet_deployment(self, cli):
        cli.run_command("rai run")
        assert "No alerts have fired" in cli.run_command("rai alerts")

    def test_alerts_lists_firing_then_resolved(self):
        system = self._burned_system()
        cli = self._obs_cli(system)
        out = cli.run_command("rai alerts")
        assert "slo:queue-wait-p95" in out
        assert "firing" in out
        assert "critical" in out
        # A flood of short waits takes both windows back under budget:
        # the next judgment resolves the incident, which stays listed.
        wait = system.metrics.histogram("sched_queue_wait_seconds")
        for _ in range(200):
            wait.observe(1.0)
        out = cli.run_command("rai alerts")
        assert "slo:queue-wait-p95" in out
        assert "resolved" in out
        assert "firing" not in out
        assert system.alerts.active() == []

    def test_events_tail_and_job_query(self, cli):
        cli.run_command("rai run")
        out = cli.run_command("rai events")
        assert "job.state_change" in out
        assert "emitted" in out
        job_id = cli.client.history[-1].job_id
        per_job = cli.run_command(f"rai events {job_id}")
        assert "status=succeeded" in per_job
        assert "[trace " in per_job
        by_type = cli.run_command("rai events pool.")
        assert "pool." in by_type
        assert "No matching events" in cli.run_command("rai events nope.")

    def test_new_subcommands_listed_in_help(self, cli):
        out = cli.run_command("rai help")
        for sub in ("slo", "alerts", "events", "cache"):
            assert sub in out

    def test_cache_idle_deployment(self, cli):
        out = cli.run_command("rai cache")
        assert "build cache: 0 entries" in out
        assert "chunk fetch caches" in out
        assert "worker-0001" in out

    def test_cache_after_cached_resubmission(self, cli, system):
        cli.run_command("rai run")
        gap = system.config.rate_limit_seconds + 1.0
        system.run(until=system.sim.now + gap)
        cli.run_command("rai run")
        out = cli.run_command("rai cache")
        assert "hit rate" in out
        assert "hottest build-cache entries" in out
        assert "make" in out
        # The resubmission's two build commands hit.
        assert "2 hits" in out
        stats = system.build_cache.stats()
        assert stats["observations"] > 0
        assert f"{stats['observations']} filesystem observations" in out

    def test_cache_disabled_deployment(self):
        from repro.core.cli import RaiCLI
        from repro.core.config import SystemConfig
        from repro.core.system import RaiSystem

        config = SystemConfig()
        config.buildcache_enabled = False
        system = RaiSystem.standard(num_workers=1, seed=52, config=config)
        client = system.new_client(team="t")
        out = RaiCLI(system, client).run_command("rai cache")
        assert "disabled" in out
