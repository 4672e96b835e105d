"""The operator's view of the SLO loop, pinned byte for byte.

One worker (seed 408, ids reset by the conftest fixture) runs with
observability on; after two scrape intervals a 40-team deadline burst
queues on it, so the queue-wait objective burns and fires.  An hour
later the burn has left the fast window and the alert resolves; then
the scrape loop wedges and the stuck-scraper watchdog fires, and
resolves once snapshots resume.  ``rai slo``, ``rai alerts``, the health
report and every ``alert.*`` event payload along the way must match
``operator_text.txt`` exactly.
"""

from pathlib import Path

import pytest

from repro.core.cli import RaiCLI
from repro.core.system import RaiSystem
from repro.core.telemetry import health_report
from repro.obs.scrape import INTERVAL_SECONDS

pytestmark = [pytest.mark.obs, pytest.mark.slo]

EXPECTED = Path(__file__).with_name("operator_text.txt")


def _project(quality: float) -> dict:
    return {"main.cu": f"// @rai-sim quality={quality:.2f} impl=analytic\n",
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n"}


def operator_text(monkeypatch) -> str:
    system = RaiSystem.standard(num_workers=1, seed=408)
    system.start_observability()
    cli = RaiCLI(system, system.new_client(team="operator"))
    system.run(until=2 * INTERVAL_SECONDS)
    teams = [system.new_client(team=f"burst-{i}") for i in range(40)]
    for i, team in enumerate(teams):
        team.stage_project(_project(0.1 + i / 50))
    system.run_all(team.submit() for team in teams)
    out = [cli.run_command("rai slo"), cli.run_command("rai alerts")]
    system.run(until=system.sim.now + 3600.0)
    out += [cli.run_command("rai slo"), cli.run_command("rai alerts"),
            health_report(system)]
    # Wedge the scrape loop: it still wakes, and takes no snapshot.
    scraper = system.scraper
    monkeypatch.setattr(scraper, "scrape_now", scraper.latest)
    system.run(until=system.sim.now + 10 * INTERVAL_SECONDS)
    out += [health_report(system), cli.run_command("rai alerts")]
    monkeypatch.undo()
    scraper.scrape_now()
    out += [health_report(system), cli.run_command("rai alerts")]
    out += [repr(event.to_dict())
            for event in system.events.query(prefix="alert.")]
    return "\n".join(out) + "\n"


def test_operator_text_is_unchanged(monkeypatch):
    assert operator_text(monkeypatch) == EXPECTED.read_text()
