"""The download page (Figure 3) and the commit-bisection helper."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import ReleaseError
from repro.release.buildmatrix import BUILD_MATRIX
from repro.release.ci import Commit, ContinuousBuilder


class DownloadPage:
    """The project-website table: one row per OS/arch, with stable
    (master) and development (devel) links, "continuously updated" as CI
    publishes new builds."""

    def __init__(self, builder: ContinuousBuilder):
        self.builder = builder

    def rows(self) -> List[dict]:
        out = []
        for target in BUILD_MATRIX:
            row = {"os": target.os, "arch": target.arch}
            for column, branch in (("stable", "master"),
                                   ("development", "devel")):
                try:
                    artifact = self.builder.latest(branch, target.key)
                    row[column] = artifact.url
                    row[f"{column}_commit"] = artifact.commit
                except ReleaseError:
                    row[column] = None
                    row[f"{column}_commit"] = None
            out.append(row)
        return out

    def render(self) -> str:
        header = (f"{'Operating System':<18} {'Architecture':<12} "
                  f"{'Stable':<8} {'Development':<12}")
        lines = [header, "-" * len(header)]
        for row in self.rows():
            stable = "URL" if row["stable"] else "-"
            devel = "URL" if row["development"] else "-"
            lines.append(f"{row['os']:<18} {row['arch']:<12} "
                         f"{stable:<8} {devel:<12}")
        return "\n".join(lines)


def find_regression(commits: List[Commit],
                    is_bad: Callable[[Commit], bool]) -> Optional[Commit]:
    """Bisect for the first bad commit.

    The embedded commit info in bug reports gave staff a known-bad build;
    bisection against the commit history "allowed us to narrow which
    commit introduced the regression" (§VII).  Assumes the classic
    monotone good→bad property.
    """
    if not commits:
        return None
    if not is_bad(commits[-1]):
        return None   # tip is good: no regression to find
    lo, hi = 0, len(commits) - 1
    if is_bad(commits[0]):
        return commits[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if is_bad(commits[mid]):
            hi = mid
        else:
            lo = mid
    return commits[hi]
