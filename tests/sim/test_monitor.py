"""Unit tests for measurement instruments."""

from repro.sim import Monitor, Simulator


class TestMonitor:
    def test_counters(self):
        mon = Monitor(Simulator())
        mon.incr("jobs")
        mon.incr("jobs", 2)
        assert mon.counters.as_dict() == {"jobs": 3}
