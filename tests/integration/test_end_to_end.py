"""End-to-end integration: the complete Figure 1 architecture in motion."""

import pytest

from repro.core.job import JobKind, JobStatus
from repro.core.system import RaiSystem
from repro.vfs import VirtualFileSystem, unpack_tree


@pytest.fixture
def files():
    return {
        "main.cu": "// @rai-sim quality=0.9 impl=im2col\n"
                   "#define TILE_WIDTH 16\n",
        "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
        "USAGE": "cmake /src && make && ./ece408 ...",
        "report.pdf": b"%PDF-1.4" + bytes(2048),
    }


class TestWholePipeline:
    def test_development_then_final_then_grading(self, files):
        """The full student+instructor journey through every component."""
        system = RaiSystem.standard(num_workers=2, seed=42)

        # --- Student: development iterations ---------------------------
        client = system.new_client(team="integration-team")
        client.stage_project(files)
        dev = system.run(client.submit(JobKind.RUN))
        assert dev.status is JobStatus.SUCCEEDED
        # nvprof artifact comes back through the file server
        blob = client.download_build(dev)
        fs = VirtualFileSystem()
        unpack_tree(blob, fs, "/")
        assert fs.isfile("/timeline.nvprof")

        # --- Student: final submission ---------------------------------
        def wait(sim):
            yield sim.timeout(31)

        system.run(wait(system.sim))
        final = system.run(client.submit(JobKind.SUBMIT))
        assert final.status is JobStatus.SUCCEEDED
        assert final.rank == 1
        # real numpy ran on test10? no: finals use the full dataset with
        # the analytic path; internal timer parsed either way.
        assert final.internal_time is not None
        assert final.time_command_output is not None

        # --- The database recorded both --------------------------------
        submissions = system.db.collection("submissions")
        assert submissions.count_documents(
            {"team": "integration-team"}) == 2
        assert submissions.count_documents({"kind": "submit"}) == 1

        # --- Instructor: download, re-run, grade ------------------------
        from repro.grading import (
            GradingEvaluator,
            SubmissionDownloader,
            generate_grade_reports,
        )

        downloader = SubmissionDownloader(system)
        subs = downloader.download_all(clean=True)
        assert len(subs) == 1
        evaluator = GradingEvaluator()
        evaluations = {s.team: evaluator.evaluate(s, repetitions=3)
                       for s in subs}
        ranks = {r["team"]: r["rank"]
                 for r in system.ranking.leaderboard()}
        reports = generate_grade_reports(subs, evaluations, ranks)
        assert reports[0].breakdown.total > 0.5
        assert reports[0].breakdown.rank == 1

    def test_lifecycle_expires_stale_uploads(self, files):
        """§V step 3: uploads are deleted a month after last use."""
        system = RaiSystem.standard(num_workers=1, seed=1)
        client = system.new_client(team="t")
        client.stage_project(files)
        result = system.run(client.submit())
        uploads = system.config.upload_bucket
        assert len(list(system.storage.iter_keys(uploads))) == 1

        def pass_time(sim):
            yield sim.timeout(31 * 24 * 3600.0)

        system.run(pass_time(system.sim))
        system.storage.run_lifecycle_sweep()
        assert len(list(system.storage.iter_keys(uploads))) == 0
        # build outputs (90-day rule) survive the first month
        builds = system.config.build_bucket
        assert len(list(system.storage.iter_keys(builds))) == 1

    def test_presigned_build_url_expires(self, files):
        system = RaiSystem.standard(num_workers=1, seed=1)
        client = system.new_client(team="t")
        client.stage_project(files)
        result = system.run(client.submit())
        assert client.download_build(result) is not None

        def pass_time(sim):
            yield sim.timeout(8 * 24 * 3600.0)   # past 7-day presign expiry

        system.run(pass_time(system.sim))
        from repro.errors import ExpiredToken

        with pytest.raises(ExpiredToken):
            client.download_build(result)

    def test_burst_of_teams_all_served(self, files):
        """A deadline-like burst: 12 teams, 3 workers, nobody starved."""
        system = RaiSystem.standard(num_workers=3, seed=9)
        clients = []
        for i in range(12):
            c = system.new_client(team=f"team-{i:02d}")
            c.stage_project(files)
            clients.append(c)
        results = system.run_all([c.submit(JobKind.SUBMIT)
                                  for c in clients])
        assert all(r.status is JobStatus.SUCCEEDED for r in results)
        assert len(system.ranking) == 12
        ranks = {r.rank for r in results if r.rank}
        assert ranks  # ranks reported on results

    def test_worker_scale_out_mid_burst_helps(self, files):
        """Elasticity: adding workers mid-burst cuts later queue waits."""
        def run(scale_out: bool):
            system = RaiSystem.standard(num_workers=1, seed=13)
            clients = []
            # A long enough burst that new (cold, image-pulling) workers
            # pay for themselves — mirroring §VII where extra instances
            # were provisioned for sustained deadline load, not blips.
            # They join at 30 s and need ~45 s to pull and create; with
            # two warm containers per slot, the one warm worker clears a
            # 20-team burst about as soon (76.4 s either way), so the
            # burst is 30 teams: 79.4 s with the scale-out, 91.0 s without.
            for i in range(30):
                c = system.new_client(team=f"t{i}")
                # Distinct sources per team: identical trees would let
                # the build cache collapse the burst into replays, and
                # elasticity has nothing to help with.
                c.stage_project(dict(
                    files, **{"main.cu":
                              files["main.cu"] + f"// t{i}\n"}))
                clients.append(c)
            procs = [system.sim.process(c.submit()) for c in clients]
            if scale_out:
                def scaler(sim):
                    yield sim.timeout(30.0)
                    for _ in range(3):
                        system.add_worker()

                system.sim.process(scaler(system.sim))
            system.sim.run(until=system.sim.all_of(procs))
            results = [p.value for p in procs]
            assert all(r.succeeded for r in results)
            return max(r.turnaround for r in results)

        assert run(scale_out=True) < run(scale_out=False)
