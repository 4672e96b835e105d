"""Unit tests for the build/delivery pipeline (§VII, Figure 3)."""

import dataclasses

import pytest

from repro.errors import ReleaseError
from repro.release import (
    BUILD_MATRIX,
    ContinuousBuilder,
    DownloadPage,
    find_regression,
)


@pytest.fixture
def builder():
    b = ContinuousBuilder()
    b.devel.commit("initial import")
    b.master.merge_from(b.devel)
    return b


class TestBuildMatrix:
    def test_figure3_targets(self):
        """10 rows: 6 linux, 2 darwin, 2 windows (Figure 3)."""
        assert len(BUILD_MATRIX) == 10
        by_os = {}
        for target in BUILD_MATRIX:
            by_os.setdefault(target.os, []).append(target.arch)
        assert len(by_os["linux"]) == 6
        assert by_os["darwin"] == ["i386", "amd64"]
        assert by_os["windows"] == ["i386", "amd64"]

    def test_windows_binaries_have_exe(self):
        windows = [t for t in BUILD_MATRIX if t.os == "windows"]
        assert all(t.binary_name.endswith(".exe") for t in windows)


class TestBranches:
    def test_commit_shas_unique(self, builder):
        first = builder.devel.commit("a")
        second = builder.devel.commit("b")
        assert first.sha != second.sha

    def test_merge_adopts_new_commits(self, builder):
        builder.devel.commit("feature")
        merged = builder.master.merge_from(builder.devel)
        assert len(merged) == 1
        assert builder.master.head.sha == builder.devel.head.sha

    def test_merge_is_idempotent(self, builder):
        builder.devel.commit("feature")
        builder.master.merge_from(builder.devel)
        assert builder.master.merge_from(builder.devel) == []

    def test_unknown_branch(self, builder):
        with pytest.raises(ReleaseError):
            builder.branch("release-candidate")


class TestContinuousBuilds:
    def test_build_covers_all_targets(self, builder):
        artifacts = builder.build_branch("master")
        assert len(artifacts) == 10
        assert {a.target.key for a in artifacts} == \
            {t.key for t in BUILD_MATRIX}

    def test_metadata_embedded(self, builder):
        """§VII: commit and build date embedded in the binary."""
        artifact = builder.build_branch(
            "master", build_date="2016-11-20T12:00:00Z")[0]
        assert artifact.commit == builder.master.head.sha
        assert artifact.build_date == "2016-11-20T12:00:00Z"
        assert artifact.branch == "master"

    def test_build_empty_branch_fails(self):
        builder = ContinuousBuilder()
        with pytest.raises(ReleaseError):
            builder.build_branch("master")

    def test_build_all_does_both_branches(self, builder):
        builder.devel.commit("devel-only change")
        built = builder.build_all()
        assert set(built) == {"master", "devel"}
        master = builder.latest("master", "linux-amd64")
        devel = builder.latest("devel", "linux-amd64")
        assert master.commit != devel.commit

    def test_publishes_to_object_store(self, sim):
        from repro.storage import ObjectStore

        storage = ObjectStore(sim)
        builder = ContinuousBuilder(storage=storage)
        builder.master.commit("x")
        builder.build_branch("master")
        keys = sorted(storage.bucket(builder.RELEASE_BUCKET).objects)
        assert len(keys) == 10
        artifact = builder.latest("master", "linux-amd64")
        blob = storage.redeem_get(artifact.url).data
        assert b"commit=" in blob


class TestDownloadPage:
    def test_rows_match_figure3(self, builder):
        builder.devel.commit("wip")
        builder.build_all()
        page = DownloadPage(builder)
        rows = page.rows()
        assert len(rows) == 10
        assert all(r["stable"] and r["development"] for r in rows)

    def test_render_layout(self, builder):
        builder.build_all()
        text = DownloadPage(builder).render()
        assert "linux" in text and "darwin" in text and "windows" in text
        assert "URL" in text

    def test_links_update_after_new_build(self, builder):
        """'The links are continuously updated' (Figure 3 caption)."""
        builder.build_all()
        old = DownloadPage(builder).rows()[0]["stable_commit"]
        builder.master.commit("hotfix")
        builder.build_branch("master")
        new = DownloadPage(builder).rows()[0]["stable_commit"]
        assert new != old


class TestRegressionBisect:
    def test_finds_first_bad_commit(self, builder):
        commits = [builder.devel.commit(f"c{i}") for i in range(10)]
        commits[6] = builder.devel.commits[6] = dataclasses.replace(
            commits[6], introduces_bug=True)
        bad = find_regression(builder.devel.commits,
                              lambda c: any(
                                  x.introduces_bug
                                  for x in builder.devel.commits[
                                      :builder.devel.commits.index(c) + 1]))
        assert bad is commits[6]

    def test_no_regression_returns_none(self, builder):
        builder.devel.commit("fine")
        assert find_regression(builder.devel.commits, lambda c: False) is None

    def test_empty_history(self):
        assert find_regression([], lambda c: True) is None
