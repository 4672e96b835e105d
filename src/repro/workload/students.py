"""Class roster and team formation.

"176 students formed 58 teams" (§VII) — teams of 2 to 4 students (§I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.auth.roster import RosterEntry

#: Share of teams whose skill lands in Figure 2's slow tail.
STRUGGLING_FRACTION = 0.35

_FIRST_NAMES = [
    "Alex", "Bailey", "Casey", "Devon", "Emery", "Finley", "Gray",
    "Harper", "Indigo", "Jordan", "Kai", "Logan", "Morgan", "Noel",
    "Oakley", "Parker", "Quinn", "Reese", "Sage", "Taylor", "Uma",
    "Val", "Wren", "Xia", "Yuri", "Zhen",
]
_LAST_NAMES = [
    "Anderson", "Brown", "Chen", "Davis", "Evans", "Foster", "Garcia",
    "Huang", "Ivanov", "Johnson", "Kim", "Lee", "Martinez", "Nguyen",
    "Olsen", "Patel", "Quintero", "Rodriguez", "Singh", "Tanaka",
    "Ueda", "Vasquez", "Wang", "Xu", "Yamamoto", "Zhang",
]


@dataclass(frozen=True)
class Student:
    """One enrolled student."""

    user_id: str
    first_name: str
    last_name: str

    def roster_entry(self) -> RosterEntry:
        return RosterEntry(self.first_name, self.last_name, self.user_id)


@dataclass
class Team:
    """A project team of 2-4 students."""

    name: str
    members: List[Student] = field(default_factory=list)
    #: Latent ability in [0, 1]; feeds the optimisation trajectory.
    skill: float = 0.5


def make_class(n_students: int = 176, n_teams: int = 58,
               rng: np.random.Generator = None):
    """Generate the class: students, teams of 2-4, and team skills.

    Skills are a mixture: most teams reach high optimisation quality (the
    sub-second cluster of Figure 2), a :data:`STRUGGLING_FRACTION` lands
    much lower (the histogram's multi-second-to-2-minute tail).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not (2 * n_teams <= n_students <= 4 * n_teams):
        raise ValueError(
            f"cannot split {n_students} students into {n_teams} teams "
            f"of 2-4")

    students = [
        Student(
            user_id=f"student{i + 1:03d}",
            first_name=_FIRST_NAMES[int(rng.integers(0, len(_FIRST_NAMES)))],
            last_name=_LAST_NAMES[int(rng.integers(0, len(_LAST_NAMES)))],
        )
        for i in range(n_students)
    ]

    # Start every team at 2, then deal the remainder round-robin (max 4).
    sizes = [2] * n_teams
    extra = n_students - 2 * n_teams
    order = rng.permutation(n_teams)
    idx = 0
    while extra > 0:
        team = int(order[idx % n_teams])
        if sizes[team] < 4:
            sizes[team] += 1
            extra -= 1
        idx += 1

    teams: List[Team] = []
    cursor = 0
    for i, size in enumerate(sizes):
        if rng.random() < STRUGGLING_FRACTION:
            skill = float(rng.uniform(0.08, 0.65))
        else:
            skill = float(0.62 + 0.33 * rng.beta(2.0, 1.2))
        teams.append(Team(
            name=f"team-{i + 1:02d}",
            members=students[cursor:cursor + size],
            skill=min(1.0, max(0.0, skill)),
        ))
        cursor += size
    return students, teams
