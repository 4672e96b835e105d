"""Tests for the scraped deployment signals and the health report."""

import math

import pytest

from repro.core.system import RaiSystem
from repro.core.telemetry import health_report
from repro.obs import scrape

FILES = {
    "main.cu": "// @rai-sim quality=0.7 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


@pytest.fixture
def system():
    return RaiSystem.standard(num_workers=2, seed=12)


def samples(system, signal):
    return [v for _, v in system.scraper.gauge_samples(
        signal, system.sim.now, math.inf)]


class TestSampler:
    def test_samples_signals_over_time(self, system, monkeypatch):
        monkeypatch.setattr(scrape, "INTERVAL_SECONDS", 10.0)
        system.start_observability()
        clients = []
        for i in range(4):
            c = system.new_client(team=f"t{i}")
            c.stage_project(FILES)
            clients.append(c)
        procs = [system.sim.process(c.submit()) for c in clients]
        system.sim.run(until=system.sim.all_of(procs))
        for signal in ("queue_depth", "workers_running", "jobs_active",
                       "in_flight"):
            assert len(samples(system, signal)) > 0
        assert max(samples(system, "workers_running")) == 2
        assert max(samples(system, "jobs_active")) >= 1
        assert system.storage.total_bytes > 0


class TestHealthReport:
    def test_snapshot_without_sampler(self, system):
        client = system.new_client(team="t")
        client.stage_project(FILES)
        system.run(client.submit())
        report = health_report(system)
        assert "jobs completed" in report
        assert "file server" in report
        assert "2/2" in report

    def test_unsampled_signal_has_no_peak_row(self, system):
        assert samples(system, "queue_depth") == []
        report = health_report(system)
        assert "(peak)" not in report and "(avg)" not in report

    def test_with_sampler_includes_averages(self, system, monkeypatch):
        """`rai stats` on a deployment that ran start_observability()
        reads its average / peak rows from the scraper's samples."""
        monkeypatch.setattr(scrape, "INTERVAL_SECONDS", 5.0)
        system.start_observability()
        client = system.new_client(team="t")
        client.stage_project(FILES)
        system.sim.process(client.submit())
        system.run(until=30.0)
        report = health_report(system)
        for signal in ("queue_depth", "workers_running", "jobs_active"):
            assert f"{signal} (avg)" in report
            assert f"{signal} (peak)" in report
        rows = dict(line.split("|") for line in report.splitlines()
                    if "|" in line)
        rows = {k.strip(): v.strip() for k, v in rows.items()}
        assert rows["workers_running (avg)"] == "2.00"
        assert rows["workers_running (peak)"] == "2"
        assert rows["jobs_active (peak)"] == "1"
