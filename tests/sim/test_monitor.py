"""Unit tests for the deployment monitor."""

from repro.obs.metrics import MetricsRegistry
from repro.sim import Monitor


class TestMonitor:
    def test_counters(self):
        registry = MetricsRegistry()
        mon = Monitor(registry)
        mon.incr("jobs")
        mon.incr("jobs", 2)
        assert mon.counters.as_dict() == {"jobs": 3}
        # The counts live in the registry, unprefixed.
        assert registry.value("jobs") == 3
