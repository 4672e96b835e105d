"""The continuous builder over master/devel branches."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReleaseError
from repro.release.buildmatrix import BUILD_MATRIX, Artifact, BuildTarget

#: The client version every build is stamped with.
VERSION = "0.2.0"


@dataclass(frozen=True)
class Commit:
    """A source revision."""

    sha: str
    message: str
    author: str = "staff"
    #: Behavioural flag used by regression-bisection tests/examples.
    introduces_bug: bool = False


@dataclass
class Branch:
    """A named line of development."""

    name: str
    commits: List[Commit] = field(default_factory=list)

    @property
    def head(self) -> Optional[Commit]:
        return self.commits[-1] if self.commits else None

    def commit(self, message: str) -> Commit:
        payload = f"{self.name}:{len(self.commits)}:{message}"
        sha = hashlib.sha1(payload.encode()).hexdigest()[:7]
        c = Commit(sha=sha, message=message)
        self.commits.append(c)
        return c

    def merge_from(self, other: "Branch") -> List[Commit]:
        """Fast-forward style merge: adopt commits not yet present.

        "The devel branch was merged into master as the changes were
        deemed to be stable." (§VII)
        """
        known = {c.sha for c in self.commits}
        merged = [c for c in other.commits if c.sha not in known]
        self.commits.extend(merged)
        return merged


class ContinuousBuilder:
    """Builds both branches across the matrix and publishes to storage.

    "Since we automated the build and delivery process, code changes to
    fix bugs or address features were automatically made available to
    students without further action from us." (§VII)
    """

    RELEASE_BUCKET = "rai-releases"

    def __init__(self, storage=None):
        #: Optional ObjectStore; without one, URLs are synthesised.
        self.storage = storage
        if self.storage is not None:
            self.storage.create_bucket(self.RELEASE_BUCKET, exist_ok=True)
        self.master = Branch("master")
        self.devel = Branch("devel")
        #: branch name → target key → artifact (latest build).
        self.published: Dict[str, Dict[str, Artifact]] = {}
        self.build_log: List[dict] = []

    def branch(self, name: str) -> Branch:
        if name == "master":
            return self.master
        if name == "devel":
            return self.devel
        raise ReleaseError(f"unknown branch {name!r}")

    def build_branch(self, name: str,
                     build_date: str = "2016-11-01T00:00:00Z"
                     ) -> List[Artifact]:
        """Cross-compile the branch head for every matrix target."""
        branch = self.branch(name)
        head = branch.head
        if head is None:
            raise ReleaseError(f"branch {name!r} has no commits to build")
        artifacts = []
        for target in BUILD_MATRIX:
            artifact = self._build_one(branch, head, target, build_date)
            artifacts.append(artifact)
            self.published.setdefault(name, {})[target.key] = artifact
        self.build_log.append({
            "branch": name, "commit": head.sha,
            "targets": len(artifacts), "date": build_date,
        })
        return artifacts

    def build_all(self, build_date: str = "2016-11-01T00:00:00Z"):
        """What the CI does on every push: both branches, all targets."""
        return {name: self.build_branch(name, build_date)
                for name in ("master", "devel") if self.branch(name).head}

    def _build_one(self, branch: Branch, head: Commit, target: BuildTarget,
                   build_date: str) -> Artifact:
        # A deterministic stand-in binary with the metadata embedded —
        # the same mechanism the real Go builds used (ldflags stamping).
        blob = (
            f"RAI-CLIENT\x00os={target.os}\x00arch={target.arch}\x00"
            f"version={VERSION}\x00branch={branch.name}\x00"
            f"commit={head.sha}\x00date={build_date}\x00"
            f"buggy={int(head.introduces_bug)}\x00"
        ).encode() + bytes(1024)
        key = f"{branch.name}/{head.sha}/{target.binary_name}"
        if self.storage is not None:
            self.storage.put_object(self.RELEASE_BUCKET, key, blob,
                                    metadata={"branch": branch.name,
                                              "commit": head.sha})
            url = self.storage.presign_get(self.RELEASE_BUCKET, key,
                                           expires_in=365 * 24 * 3600.0)
        else:
            url = f"https://files.rai-project.com/{key}"
        return Artifact(
            target=target, branch=branch.name, commit=head.sha,
            version=VERSION, build_date=build_date, url=url,
            size_bytes=len(blob),
        )

    def latest(self, branch: str, target_key: str) -> Artifact:
        try:
            return self.published[branch][target_key]
        except KeyError:
            raise ReleaseError(
                f"no published build for {branch}/{target_key}") from None
