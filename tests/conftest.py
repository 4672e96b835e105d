"""Shared fixtures, and the one hypothesis profile every property test runs
under."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broker.message import message_pool, reset_message_ids
from repro.core.job import reset_job_ids
from repro.obs.context import reset_obs_ids
from repro.sim import Simulator

# No per-example deadline: examples run whole simulations on a shared
# machine, so a slow example fails as ``Flaky`` wrapping
# ``DeadlineExceeded``, and passes on replay.  Each test keeps its own
# ``max_examples``.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


@settings(max_examples=1, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.characters(whitelist_categories=("Ll", "Nd")))
def _build_unicode_tables(_):
    """The first draw from a ``st.characters`` category strategy builds
    Hypothesis's Unicode tables (once per cache directory: seconds on a
    loaded machine), which would fail the first property test to draw one
    ``HealthCheck.too_slow``.  Draw once here, outside every test."""


@pytest.hookimpl(trylast=True)
def pytest_sessionstart(session):
    """Warm the tables after Hypothesis's plugin has closed its
    initialization window (in its own ``pytest_sessionstart``), so the
    draw raises no ``HypothesisSideeffectWarning``, and before any test."""
    _build_unicode_tables()


@pytest.fixture(autouse=True)
def _reset_global_counters():
    """Keep generated ids deterministic per-test."""
    reset_message_ids()
    reset_job_ids()
    reset_obs_ids()
    message_pool._free.clear()
    yield


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def system():
    """A small ready-to-use RAI deployment."""
    from repro.core.system import RaiSystem

    return RaiSystem.standard(num_workers=2, seed=7)


@pytest.fixture
def client(system):
    c = system.new_client(team="test-team")
    c.stage_project({
        "main.cu": "// @rai-sim quality=0.8 impl=analytic\nint main(){}\n",
        "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
    })
    return c
