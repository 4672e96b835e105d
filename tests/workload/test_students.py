"""Unit tests for class generation."""

import numpy as np
import pytest

from repro.workload import make_class
from repro.workload import students as students_module


class TestMakeClass:
    def test_paper_numbers(self):
        students, teams = make_class(176, 58,
                                     rng=np.random.default_rng(0))
        assert len(students) == 176
        assert len(teams) == 58

    def test_team_sizes_2_to_4(self):
        _, teams = make_class(176, 58, rng=np.random.default_rng(0))
        sizes = [len(t.members) for t in teams]
        assert all(2 <= s <= 4 for s in sizes)
        assert sum(sizes) == 176

    def test_every_student_on_exactly_one_team(self):
        students, teams = make_class(60, 20, rng=np.random.default_rng(1))
        seen = [m.user_id for t in teams for m in t.members]
        assert sorted(seen) == sorted(s.user_id for s in students)
        assert len(set(seen)) == len(seen)

    def test_impossible_split_rejected(self):
        with pytest.raises(ValueError):
            make_class(10, 1)    # would need a team of 10
        with pytest.raises(ValueError):
            make_class(10, 6)    # can't fill 6 teams of >= 2

    def test_skills_in_range_and_mixed(self):
        _, teams = make_class(176, 58, rng=np.random.default_rng(2))
        skills = [t.skill for t in teams]
        assert all(0 <= s <= 1 for s in skills)
        assert max(skills) > 0.75      # there are strong teams
        assert min(skills) < 0.6       # and struggling ones

    def test_struggling_fraction_zero(self, monkeypatch):
        monkeypatch.setattr(students_module, "STRUGGLING_FRACTION", 0.0)
        _, teams = make_class(40, 12, rng=np.random.default_rng(3))
        assert min(t.skill for t in teams) >= 0.6

    def test_deterministic_under_seed(self):
        a = make_class(30, 10, rng=np.random.default_rng(7))
        b = make_class(30, 10, rng=np.random.default_rng(7))
        assert [t.skill for t in a[1]] == [t.skill for t in b[1]]

    def test_roster_entries(self):
        students, _ = make_class(30, 10, rng=np.random.default_rng(0))
        entry = students[0].roster_entry()
        assert entry.user_id == "student001"
        assert entry.email.endswith("@illinois.edu")
