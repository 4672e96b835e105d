"""Figure 1 — the RAI system architecture, exercised end to end.

The figure is a diagram (client ↔ message broker ↔ workers, with the file
server and MongoDB at the side), so the reproduction is behavioural: one
submission must traverse every pictured component, and this bench prints
the traversal trace plus the per-component interaction counts, then times
the full round trip.
"""

from benchmarks.conftest import print_banner
from repro.core.job import JobStatus
from repro.core.system import RaiSystem

FILES = {
    "main.cu": "// @rai-sim quality=0.9 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def run_one_job():
    system = RaiSystem.standard(num_workers=2, seed=1)
    client = system.new_client(team="fig1-team")
    client.stage_project(FILES)
    result = system.run(client.submit())
    return system, result


def test_fig1_all_components_traversed(benchmark):
    system, result = benchmark.pedantic(run_one_job, rounds=1, iterations=1)
    assert result.status is JobStatus.SUCCEEDED

    broker_counters = system.broker.counters.as_dict()
    # The file server holds the job's project upload and its /build output.
    stored = {name: len(bucket) for name, bucket in
              system.storage.buckets.items()}
    uploads = stored[system.config.upload_bucket]
    builds = stored[system.config.build_bucket]

    print_banner("Figure 1 — component interactions for one submission")
    rows = [
        ("client → file server (project upload)", uploads >= 1),
        ("client → broker (job publish on rai/tasks)",
         broker_counters.get("messages_published", 0) >= 1),
        ("worker → broker (log_${job_id} stream)",
         len(result.log) > 0),
        ("broker reaps the ephemeral log topic after End",
         f"log_{result.job_id}" not in system.broker.topics),
        ("worker → file server (/build upload)", builds >= 1),
        ("worker → MongoDB (submission record)",
         len(system.db.collection("submissions")) == 1),
        ("client ← file server (presigned build download)",
         result.build_url is not None),
    ]
    for label, ok in rows:
        print(f"  [{'x' if ok else ' '}] {label}")
    assert all(ok for _, ok in rows)

    print(f"\n  broker messages: "
          f"{broker_counters.get('messages_published', 0):.0f}"
          f" | stored objects uploads/builds: {uploads}/{builds}"
          f" | db documents: {system.db.total_documents()}")
    print(f"  simulated turnaround: {result.turnaround:.1f}s "
          f"(includes first-job image pull)")
