"""Fair-share scheduler policy: DRR, deadline band, SJF, wait EWMA."""

import pytest

from repro.broker.message import Message
from repro.errors import InvalidQuery
from repro.sched import JobScheduler, RuntimeEstimator, SchedulerPolicy
from repro.sched.estimator import ALPHA, DEFAULT_SECONDS

pytestmark = pytest.mark.sched


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def msg(team: str, t: float = 0.0) -> Message:
    return Message("rai", {"team": team}, timestamp=t)


@pytest.fixture
def clock():
    return FakeClock()


def drain(sched: JobScheduler, items: list) -> list:
    """Dequeue everything through select(), returning the team order."""
    order = []
    queue = list(items)
    while queue:
        index = sched.select(queue)
        picked = queue.pop(index)
        sched.note_dispatch(picked)
        order.append(picked.body["team"])
    return order


class TestPolicyValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            SchedulerPolicy(quantum_seconds=0)
        with pytest.raises(ValueError):
            SchedulerPolicy(deficit_cap_seconds=-1)
        with pytest.raises(ValueError):
            SchedulerPolicy(wait_ewma_alpha=0.0)
        with pytest.raises(ValueError):
            SchedulerPolicy(wait_ewma_half_life=0)


class TestDeficitRoundRobin:
    def test_flooding_team_cannot_starve_others(self, clock):
        sched = JobScheduler(clock)
        # 10 queued jobs from the storm, one each from two quiet teams
        # (queued later — FIFO would serve them last).
        items = [msg("storm", t=i * 0.1) for i in range(10)]
        items += [msg("quiet-a", t=5.0), msg("quiet-b", t=5.0)]
        order = drain(sched, items)
        # Both quiet teams dispatch within the first few picks, not after
        # the storm drains.
        assert order.index("quiet-a") < 4
        assert order.index("quiet-b") < 4
        assert set(order[-6:]) == {"storm"}

    def test_single_team_degrades_to_fifo(self, clock):
        sched = JobScheduler(clock)
        items = [msg("only", t=float(i)) for i in range(4)]
        first = items[0]
        assert items[sched.select(items)] is first

    def test_round_robin_across_equal_teams(self, clock):
        sched = JobScheduler(clock)
        items = [msg("a"), msg("a"), msg("b"), msg("b")]
        order = drain(sched, items)
        # Equal costs and quanta: strict alternation.
        assert order == ["a", "b", "a", "b"]

    def test_unkeyed_bodies_share_anonymous_bucket(self, clock):
        sched = JobScheduler(clock)
        items = [Message("rai", "not-a-dict", timestamp=0.0),
                 Message("rai", {"n": 1}, timestamp=0.0)]
        index = sched.select(items)
        assert index == 0          # FIFO within the anonymous bucket

    def test_departed_team_deficit_pruned(self, clock):
        sched = JobScheduler(clock)
        drain(sched, [msg("a"), msg("b")])
        # Both teams have left the queue entirely.
        sched.select([msg("c"), msg("c"), msg("d")])
        assert "a" not in sched._deficits
        assert "b" not in sched._deficits


class TestDeadlineBand:
    def policy(self):
        return SchedulerPolicy(deadline_at=1000.0,
                               deadline_window_seconds=100.0)

    def test_boosted_jobs_dequeue_first(self, clock):
        sched = JobScheduler(clock, policy=self.policy())
        early = msg("early", t=10.0)          # outside the window
        boosted = msg("cramming", t=950.0)    # inside [900, 1000]
        assert sched.select([early, boosted]) == 1

    def test_drr_applies_within_the_band(self, clock):
        sched = JobScheduler(clock, policy=self.policy())
        items = [msg("storm", t=900.0 + i) for i in range(6)]
        items.append(msg("other", t=950.0))
        order = drain(sched, items)
        assert order.index("other") < 3

    def test_after_deadline_no_boost(self, clock):
        sched = JobScheduler(clock, policy=self.policy())
        late = msg("late", t=1500.0)          # past the deadline
        early = msg("early", t=10.0)
        # Neither is in the band: plain FIFO order.
        assert sched.select([early, late]) == 0

    def test_boost_counted(self, clock):
        sched = JobScheduler(clock, policy=self.policy())
        sched.note_dispatch(msg("cramming", t=950.0))
        sched.note_dispatch(msg("early", t=10.0))
        assert sched.total_boosted == 1
        assert sched.total_dispatched == 2


class TestShortestJobFirst:
    def test_faster_team_wins_ties(self, clock):
        estimator = RuntimeEstimator()
        estimator.observe("slow", 60.0)
        estimator.observe("fast", 5.0)
        sched = JobScheduler(clock, estimator=estimator)
        items = [msg("slow"), msg("fast")]
        assert sched.select(items) == 1

    def test_completion_feedback_reorders(self, clock):
        sched = JobScheduler(clock)
        sched.note_completion("a", 120.0)
        sched.note_completion("b", 2.0)
        assert sched.select([msg("a"), msg("b")]) == 1

    def test_cost_clamped_by_deficit_cap(self, clock):
        policy = SchedulerPolicy(deficit_cap_seconds=50.0)
        estimator = RuntimeEstimator()
        estimator.observe("huge", 10_000.0)
        sched = JobScheduler(clock, policy=policy, estimator=estimator)
        # An arbitrarily slow team must still become eligible (its cost
        # is clamped to the cap, which deficits can reach).
        order = drain(sched, [msg("huge"), msg("huge"), msg("tiny")])
        assert order.count("huge") == 2


class TestWaitEwma:
    def test_tracks_waits_and_decays_when_idle(self, clock):
        policy = SchedulerPolicy(wait_ewma_alpha=0.5,
                                 wait_ewma_half_life=100.0)
        sched = JobScheduler(clock, policy=policy)
        clock.now = 40.0
        sched.note_dispatch(msg("a", t=0.0))     # 40s wait
        assert sched.wait_ewma() == pytest.approx(20.0)
        clock.now = 140.0                        # one half-life idle
        assert sched.wait_ewma() == pytest.approx(10.0)

    def test_fresh_scheduler_reports_zero(self, clock):
        assert JobScheduler(clock).wait_ewma() == 0.0

    def test_wait_stats_per_team(self, clock):
        sched = JobScheduler(clock)
        clock.now = 10.0
        sched.note_dispatch(msg("a", t=0.0))
        sched.note_dispatch(msg("b", t=8.0))
        stats = sched.wait_stats()
        assert stats["teams"]["a"]["mean_wait"] == pytest.approx(10.0)
        assert stats["teams"]["b"]["mean_wait"] == pytest.approx(2.0)
        assert stats["global_mean_wait"] == pytest.approx(6.0)
        assert stats["dispatched"] == 2


class TestEstimator:
    def test_seeded_from_history_on_first_sight(self):
        estimator = RuntimeEstimator(
            history_fn=lambda key: [10.0, 10.0, 10.0])
        assert estimator.expected("seeded") == pytest.approx(10.0)

    def test_history_errors_fall_back_to_default(self):
        """The store refusing the query, or a malformed history row."""
        for error in (InvalidQuery("docdb refused the query"),
                      KeyError("service_seconds"),
                      TypeError("float() of a list"),
                      ValueError("could not convert string to float")):
            def explode(key, error=error):
                raise error

            estimator = RuntimeEstimator(history_fn=explode)
            assert estimator.expected("x") == DEFAULT_SECONDS

    def test_an_unexpected_history_error_is_not_swallowed(self):
        def explode(key):
            raise RuntimeError("a bug, not a bad row")

        estimator = RuntimeEstimator(history_fn=explode)
        with pytest.raises(RuntimeError, match="a bug"):
            estimator.expected("x")

    def test_junk_history_samples_skipped(self):
        estimator = RuntimeEstimator(
            history_fn=lambda key: [None, "nan?", -5.0, 8.0])
        assert estimator.expected("x") == pytest.approx(8.0)

    def test_observation_ewma(self):
        estimator = RuntimeEstimator()
        estimator.observe("t", 10.0)
        estimator.observe("t", 20.0)
        assert estimator.expected("t") == \
            pytest.approx(10.0 + ALPHA * (20.0 - 10.0))

    def test_negative_observation_ignored(self):
        estimator = RuntimeEstimator()
        estimator.observe("t", -1.0)
        assert estimator.expected("t") == DEFAULT_SECONDS
