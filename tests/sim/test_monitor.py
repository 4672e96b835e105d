"""Unit tests for measurement instruments."""

from repro.sim import Monitor, Simulator


class TestMonitor:
    def test_log_uses_sim_clock(self):
        sim = Simulator()
        mon = Monitor(sim)
        sim.timeout(5)
        sim.run()
        mon.log("depth_probe", depth=3)
        assert mon.events_of("depth_probe") == [(5.0, {"depth": 3})]

    def test_counters(self):
        mon = Monitor(Simulator())
        mon.incr("jobs")
        mon.incr("jobs", 2)
        assert mon.counters.get("jobs") == 3
        assert mon.counters.get("missing") == 0
