"""Coursework auditing over the submissions database.

§IV: "the information in this database is useful for grading or any other
coursework auditing process."  This module is that process: per-team
activity, failure-mode breakdowns, and improvement curves computed with
the document database's aggregation pipeline.
"""

from __future__ import annotations

from typing import List

from repro.analysis.report import render_table
from repro.docdb import DocumentDB

#: Rows of the most-improved ranking and of the summary's activity table.
MOST_IMPROVED_ROWS = 5
SUMMARY_ROWS = 10


class CourseworkAuditor:
    """Instructor analytics over the ``submissions`` collection."""

    def __init__(self, db: DocumentDB):
        self.db = db
        self.submissions = db.collection("submissions")

    # -- per-team activity ------------------------------------------------

    def team_activity(self) -> List[dict]:
        """Per-team submission counts, success rate, and best time."""
        rows = self.submissions.aggregate([
            {"$match": {"team": {"$ne": None}}},
            {"$group": {
                "_id": "$team",
                "submissions": {"$sum": 1},
                "succeeded": {"$sum": 0},  # filled below via second pass
                "best_time": {"$min": "$internal_time"},
                "first_at": {"$min": "$submitted_at"},
                "last_at": {"$max": "$finished_at"},
            }},
            {"$sort": {"submissions": -1}},
        ])
        success = {r["_id"]: r["n"] for r in self.submissions.aggregate([
            {"$match": {"status": "succeeded", "team": {"$ne": None}}},
            {"$group": {"_id": "$team", "n": {"$sum": 1}}},
        ])}
        for row in rows:
            row["succeeded"] = success.get(row["_id"], 0)
            row["success_rate"] = (row["succeeded"] / row["submissions"]
                                   if row["submissions"] else 0.0)
        return rows

    # -- failure modes ------------------------------------------------------

    def failure_breakdown(self) -> dict:
        """How jobs end, class-wide: status → count."""
        rows = self.submissions.aggregate([
            {"$group": {"_id": "$status", "n": {"$sum": 1}}},
            {"$sort": {"n": -1}},
        ])
        return {row["_id"]: row["n"] for row in rows}

    def exit_code_breakdown(self) -> dict:
        """Non-zero exit codes → counts (137 = OOM, 139 = crash, ...)."""
        rows = self.submissions.aggregate([
            {"$match": {"exit_code": {"$nin": [0, None]}}},
            {"$group": {"_id": "$exit_code", "n": {"$sum": 1}}},
            {"$sort": {"n": -1}},
        ])
        return {row["_id"]: row["n"] for row in rows}

    # -- improvement curves ------------------------------------------------

    def improvement_curve(self, team: str) -> List[dict]:
        """A team's successful timings in submission order."""
        query = {"team": team, "status": "succeeded",
                 "internal_time": {"$exists": True, "$ne": None}}
        cursor = self.submissions.find(
            query, projection={"submitted_at": 1, "internal_time": 1,
                               "kind": 1, "_id": 0})
        return cursor.sort([("submitted_at", 1)]).to_list()

    def most_improved(self) -> List[dict]:
        """Teams ranked by (first successful time / best time)."""
        out = []
        teams = dict.fromkeys(doc.get("team")
                              for doc in self.submissions.find({}))
        for team in teams:
            if team is None:
                continue
            curve = self.improvement_curve(team)
            if len(curve) < 2:
                continue
            first = curve[0]["internal_time"]
            best = min(row["internal_time"] for row in curve)
            if best > 0:
                out.append({"team": team, "first": first, "best": best,
                            "speedup": first / best})
        out.sort(key=lambda row: row["speedup"], reverse=True)
        return out[:MOST_IMPROVED_ROWS]

    # -- rendering ------------------------------------------------------------

    def render_summary(self) -> str:
        activity = self.team_activity()[:SUMMARY_ROWS]
        table = render_table(
            ["team", "subs", "ok%", "best (s)"],
            [[row["_id"], row["submissions"],
              f"{row['success_rate'] * 100:.0f}",
              f"{row['best_time']:.3f}" if row["best_time"] is not None
              else "-"]
             for row in activity],
            title=f"Most active teams (top {SUMMARY_ROWS})")
        failures = self.failure_breakdown()
        lines = [table, "", "job outcomes: " + ", ".join(
            f"{status}={count}" for status, count in failures.items())]
        return "\n".join(lines)
