"""Submission-timing behaviour: circadian rhythm × deadline pressure.

Figure 4's caption: submissions "followed their circadian rhythm", and the
final week dwarfs the one before it.  The model is a non-homogeneous
Poisson-ish process per team: think times between submissions are
exponential with a rate that is the product of a base rate, an
hour-of-day weight, and a deadline boost.
"""

from __future__ import annotations

import math

import numpy as np

HOUR = 3600.0
DAY = 24 * HOUR

#: Relative submission intensity by local hour of day.  Quiet 03:00-07:00,
#: ramps through the afternoon, peaks in the evening (students), with a
#: secondary late-night shoulder.
CIRCADIAN_WEIGHTS = np.array([
    0.30, 0.18, 0.10, 0.06, 0.05, 0.06, 0.10, 0.20,   # 00-07
    0.35, 0.55, 0.70, 0.80, 0.85, 0.90, 1.00, 1.05,   # 08-15
    1.10, 1.15, 1.20, 1.25, 1.30, 1.20, 0.90, 0.55,   # 16-23
])
_MEAN_CIRCADIAN = float(CIRCADIAN_WEIGHTS.mean())


def circadian_weight(sim_time: float) -> float:
    """Intensity multiplier for the local hour at ``sim_time``.

    ``sim_time=0`` is midnight of day 0.  Normalised to mean 1 over a day.
    """
    hour = int((sim_time % DAY) // HOUR)
    return float(CIRCADIAN_WEIGHTS[hour] / _MEAN_CIRCADIAN)


#: The deadline ramp's time constant, and the boost it saturates at
#: (students cannot iterate faster than their build/run cycle).
BOOST_TAU = 4.0 * DAY
MAX_BOOST = 6.0
#: Think-time bounds: just above the 30-second rate limit, and short
#: enough that idle teams check in at least a couple of times a day.
MIN_THINK = 35.0
MAX_THINK = 8.0 * HOUR


def deadline_boost(sim_time: float, deadline: float) -> float:
    """Exponential ramp approaching the deadline.

    Roughly doubles every ``BOOST_TAU·ln2`` seconds; saturates at
    :data:`MAX_BOOST`.  After the deadline the boost collapses.
    """
    if sim_time > deadline:
        return 0.05
    remaining = deadline - sim_time
    return min(MAX_BOOST, math.exp(-remaining / BOOST_TAU) * MAX_BOOST + 0.35)


def submission_rate(sim_time: float, deadline: float,
                    base_rate_per_hour: float = 0.55,
                    team_activity: float = 1.0) -> float:
    """Submissions/hour for one team at this instant."""
    return (base_rate_per_hour * team_activity *
            circadian_weight(sim_time) * deadline_boost(sim_time, deadline))


def sample_think_time(rng: np.random.Generator, sim_time: float,
                      deadline: float,
                      base_rate_per_hour: float = 0.55,
                      team_activity: float = 1.0) -> float:
    """Seconds until the team's next submission attempt, between
    :data:`MIN_THINK` and :data:`MAX_THINK`."""
    rate = submission_rate(sim_time, deadline, base_rate_per_hour,
                           team_activity)
    if rate <= 1e-9:
        return MAX_THINK
    think = float(rng.exponential(HOUR / rate))
    return float(min(max(think, MIN_THINK), MAX_THINK))
