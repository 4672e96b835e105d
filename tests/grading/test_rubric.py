"""Unit tests for the grading rubric."""

import pytest

from repro.grading import Rubric, RubricWeights
from repro.grading.rubric import BEST_TIME


class TestWeights:
    def test_paper_defaults(self):
        weights = RubricWeights()
        assert weights.performance == 0.30
        assert weights.correctness == 0.20
        assert weights.code_quality == 0.10
        assert weights.report == 0.40

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            RubricWeights(performance=0.5, correctness=0.5,
                          code_quality=0.5, report=0.5)


class TestPerformanceScore:
    def test_endpoints(self):
        rubric = Rubric()
        assert rubric.performance_score(0.25) == pytest.approx(1.0)
        assert rubric.performance_score(1800.0) == pytest.approx(0.0)
        assert rubric.performance_score(None) == 0.0

    def test_log_scale_midpoint(self):
        rubric = Rubric()
        import math

        geo_mean = math.sqrt(0.25 * 1800.0)
        assert rubric.performance_score(geo_mean) == pytest.approx(0.5)

    def test_each_10x_worth_similar_credit(self):
        rubric = Rubric()
        delta1 = rubric.performance_score(1.0) - rubric.performance_score(10.0)
        delta2 = rubric.performance_score(10.0) - rubric.performance_score(100.0)
        assert delta1 == pytest.approx(delta2)

    def test_faster_than_best_clamped(self):
        rubric = Rubric()
        assert rubric.performance_score(0.01) == 1.0


class TestCorrectnessScore:
    def test_at_target_full_credit(self):
        rubric = Rubric()
        assert rubric.correctness_score(0.8) == 1.0
        assert rubric.correctness_score(0.95) == 1.0

    def test_below_target_linear(self):
        rubric = Rubric()
        assert rubric.correctness_score(0.4) == pytest.approx(0.5)
        assert rubric.correctness_score(None) == 0.0


class TestGrade:
    def test_weighted_total(self):
        rubric = Rubric()
        grade = rubric.grade("t", best_time=0.25, accuracy=1.0,
                             code_quality=1.0, report=1.0, rank=1)
        assert grade.total == pytest.approx(1.0)
        assert grade.rank == 1

    def test_report_dominates_per_rubric(self):
        """40% report weight: a perfect report beats perfect performance."""
        rubric = Rubric()
        report_only = rubric.grade("a", None, None, 0.0, 1.0)
        perf_only = rubric.grade("b", BEST_TIME, None, 0.0, 0.0)
        assert report_only.total > perf_only.total

    def test_component_clamping(self):
        grade = Rubric().grade("t", 1.0, 1.0, code_quality=2.0, report=-1.0)
        assert grade.code_quality == 1.0
        assert grade.report == 0.0
