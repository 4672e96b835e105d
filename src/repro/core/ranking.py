"""Competition ranking (§VI, Competition Ranking).

Teams see their own rank and "other teams' anonymized runtimes".  Final
submissions overwrite the team's recorded time ("The timing results are
recorded onto the ranking database, and overwrites existing timing
records", §V).
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

from repro.docdb import DocumentDB

RANKING_COLLECTION = "rankings"
SUBMISSIONS_COLLECTION = "submissions"
#: What a rank or the student-facing view reads of a row: a read copies
#: these, not the whole row.
_RANK_FIELDS = {"team": 1, "internal_time": 1, "recorded_at": 1}


class RankingService:
    """Leaderboard over the document database."""

    def __init__(self, db: DocumentDB):
        self.db = db
        self.rankings = db.collection(RANKING_COLLECTION)
        self.rankings.create_index("team", unique=True)

    # -- writes ------------------------------------------------------------

    def record_final(self, team: str, internal_time: float,
                     instructor_time: float, correctness: float,
                     username: str, job_id: str, at: float) -> None:
        """Record (overwrite) a team's final-submission timing."""
        self.rankings.update_one(
            {"team": team},
            {"$set": {
                "team": team,
                "internal_time": float(internal_time),
                "instructor_time": float(instructor_time),
                "correctness": float(correctness),
                "submitted_by": username,
                "job_id": job_id,
                "recorded_at": float(at),
            }},
            upsert=True,
        )

    # -- reads ------------------------------------------------------------

    def leaderboard(self, limit: Optional[int] = None) -> List[dict]:
        """Teams ordered by internal time ascending (fastest first)."""
        return self._ranked(limit, None)

    def _ranked(self, limit: Optional[int],
                projection: Optional[dict]) -> List[dict]:
        """The leaderboard's rows, each copied through ``projection``."""
        cursor = self.rankings.find({}, projection).sort(
            [("internal_time", 1), ("recorded_at", 1)])
        if limit is not None:
            cursor = cursor.limit(limit)
        rows = cursor.to_list()
        for rank, row in enumerate(rows, start=1):
            row["rank"] = rank
        return rows

    def team_rank(self, team: str) -> Optional[int]:
        for row in self._ranked(None, _RANK_FIELDS):
            if row["team"] == team:
                return row["rank"]
        return None

    def anonymized_view(self, viewer_team: str,
                        limit: Optional[int] = None) -> List[dict]:
        """The student-facing leaderboard: only your own team is named.

        Other teams appear under a stable opaque label so students can
        watch relative movement without identifying competitors (§VI).
        """
        rows = self._ranked(limit, _RANK_FIELDS)
        out = []
        for row in rows:
            is_self = row["team"] == viewer_team
            out.append({
                "rank": row["rank"],
                "team": row["team"] if is_self else
                    _anonymize(row["team"]),
                "internal_time": row["internal_time"],
                "is_you": is_self,
            })
        return out

    def top_runtimes(self, n: int = 30) -> List[float]:
        """The top-n internal times — the data behind Figure 2."""
        return [row["internal_time"] for row in self.leaderboard(limit=n)]

    def __len__(self) -> int:
        return len(self.rankings)


def _anonymize(team: str) -> str:
    digest = hashlib.sha256(("rai-anon:" + team).encode()).hexdigest()[:8]
    return f"team-{digest}"
