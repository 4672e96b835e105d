"""The grading rubric (§VII: 30/20/10/40)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RubricWeights:
    performance: float = 0.30
    correctness: float = 0.20
    code_quality: float = 0.10
    report: float = 0.40

    def __post_init__(self):
        total = (self.performance + self.correctness +
                 self.code_quality + self.report)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"rubric weights must sum to 1, got {total}")


@dataclass
class GradeBreakdown:
    """Component scores in [0, 1] plus the weighted total."""

    team: str
    performance: float
    correctness: float
    code_quality: float
    report: float
    total: float
    rank: Optional[int] = None
    best_time: Optional[float] = None


#: Performance endpoints, seconds: the fastest achievable time scores 1,
#: the serial baseline 0.
BEST_TIME = 0.25
BASELINE_TIME = 30 * 60.0
#: Accuracy earning full correctness credit.
ACCURACY_TARGET = 0.80


class Rubric:
    """Scores a team's evaluation results.

    Performance is scored on a log scale between the fastest achievable
    time and the serial baseline: a team at the baseline gets 0, matching
    the top time gets 1, and every ~10× speedup earns equal credit —
    appropriate for a contest spanning 4 orders of magnitude.
    """

    def __init__(self):
        self.weights = RubricWeights()

    def performance_score(self, best_time: Optional[float]) -> float:
        if best_time is None or best_time <= 0:
            return 0.0
        t = min(max(best_time, BEST_TIME), BASELINE_TIME)
        return (math.log(BASELINE_TIME / t)
                / math.log(BASELINE_TIME / BEST_TIME))

    def correctness_score(self, accuracy: Optional[float]) -> float:
        """Full credit at/above the target accuracy, linear below."""
        if accuracy is None:
            return 0.0
        if accuracy >= ACCURACY_TARGET:
            return 1.0
        return max(0.0, accuracy / ACCURACY_TARGET)

    def grade(self, team: str, best_time: Optional[float],
              accuracy: Optional[float], code_quality: float,
              report: float, rank: Optional[int] = None) -> GradeBreakdown:
        performance = self.performance_score(best_time)
        correctness = self.correctness_score(accuracy)
        weights = self.weights
        total = (weights.performance * performance +
                 weights.correctness * correctness +
                 weights.code_quality * code_quality +
                 weights.report * report)
        return GradeBreakdown(
            team=team,
            performance=performance,
            correctness=correctness,
            code_quality=min(1.0, max(0.0, code_quality)),
            report=min(1.0, max(0.0, report)),
            total=total,
            rank=rank,
            best_time=best_time,
        )
