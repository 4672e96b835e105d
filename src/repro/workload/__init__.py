"""Synthetic student population and course-driver processes.

The paper's operational data (Figures 2 and 4, the §VII/§VIII aggregate
numbers) comes from 176 students in 58 teams working over a 5-week
project.  This subpackage is the DESIGN.md substitution for that class: a
stochastic behaviour model with the three mechanisms the paper names —

- a **circadian rhythm** in submission activity ("students made a
  significant number of submissions ... which followed their circadian
  rhythm", Fig. 4 caption);
- **deadline pressure** ("students worked in bursts", the final-week
  surge);
- an **optimisation trajectory** from the 30-minute serial baseline to
  sub-second tuned kernels, whose endpoint distribution produces the
  Figure 2 runtime histogram.
"""

from repro.workload.students import Student, Team, make_class
from repro.workload.trajectory import TeamTrajectory, team_project_files
from repro.workload.behavior import (
    circadian_weight,
    deadline_boost,
    submission_rate,
    sample_think_time,
)
from repro.workload.course import CourseConfig, CourseResult, CourseSimulation

__all__ = [
    "Student",
    "Team",
    "make_class",
    "TeamTrajectory",
    "team_project_files",
    "circadian_weight",
    "deadline_boost",
    "submission_rate",
    "sample_think_time",
    "CourseConfig",
    "CourseResult",
    "CourseSimulation",
]
