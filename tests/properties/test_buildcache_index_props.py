"""Each worker's build-cache index against a model of what it was told.

A worker answers a build-cache hit from its own index when it already
holds the entry's key — from a probe it paid, or a capture it made — and
pays the probe (one round trip, which refreshes the index for the whole
job) only at the first cacheable command its index cannot answer.  The
model below replays every capture, eviction and probe in order and must
agree with the real index at every lookup, over generated job sequences
on two workers where one is stopped and replaced mid-run.  The rule before the
index — a delivery's first hit paid the probe, misses paid nothing — is
kept here only as an oracle: it must give the same hit and miss counts.
"""

import itertools
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pipeline
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.storage import buildcache
from repro.storage.buildcache import BuildCache, image_cache_key, primary_key

pytestmark = pytest.mark.buildcache

BUILD_FILE = ("rai:\n  version: 0.1\n  image: webgpu/rai:root\n"
              "commands:\n  build:\n    - cmake /src\n    - make\n")
SOURCES = ("// @rai-sim quality=0.8 impl=analytic\nint main(){}\n",
           "// @rai-sim quality=0.9 impl=analytic\nint main(){return 0;}\n",
           "// broken\nCOMPILE_ERROR\n")

#: (team, source variant, tuning value): the tuning file is never read
#: by a build, so an edit to it alone still hits.
jobs = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(0, 1)), min_size=3, max_size=7)
#: Artifact budgets: no eviction, or room for the ``cmake`` artifact
#: (69 B) and one or two ``make`` binaries (138 B each).
budgets = st.sampled_from([buildcache.MAX_BYTES, 250, 350])


def first_hit_build(run):
    """``pipeline.build`` under the rule before the index: a delivery's
    first hit pays the probe, and a miss pays nothing."""
    worker, container = run.worker, run.container
    cache = worker.system.build_cache
    image_key = image_cache_key(worker.runtime.registry.get(run.spec.image))
    pipeline._start_container(run)
    run.exit_code = 0
    for command in run.spec.build_commands:
        span = worker.system.tracer.start_span("container.exec",
                                               parent=run.span)
        entry = cache.lookup(image_key, container.workdir, command,
                             container.fs)
        if entry is None:
            result = yield from pipeline._exec(run, command, span, image_key)
            run.exit_code = result.exit_code
        else:
            if not run.probed:
                run.probed = True
                yield worker.sim.timeout(pipeline.BUILDCACHE_PROBE_SECONDS)
            run.exit_code, _ = yield from pipeline._replay(run, entry, span,
                                                           False)
        span.end()
        if run.exit_code:
            break
    run.status = JobStatus.FAILED if run.exit_code else JobStatus.SUCCEEDED


def run_course(job_list, stop_at, stopped, budget, patch):
    """Submit ``job_list`` one after another on two workers, the cache
    holding ``budget`` artifact bytes; before job ``stop_at``, stop worker
    ``stopped`` and add a replacement."""
    patch.setattr(buildcache, "MAX_BYTES", budget)
    system = RaiSystem.standard(num_workers=2, seed=61)
    clients = [system.new_client(team=f"team{t}") for t in range(3)]
    for client in clients:
        client.set_build_file(BUILD_FILE)
    results, replacement = [], []

    def driver():
        for i, (team, source, tuning) in enumerate(job_list):
            if i == stop_at:
                system.remove_worker(system.workers[stopped])
                replacement.append(system.add_worker())
                assert replacement[0].buildcache_index == {}
            yield system.sim.timeout(system.config.rate_limit_seconds + 1)
            clients[team].stage_project({
                "main.cu": SOURCES[source],
                "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
                "zz_tuning.cfg": f"#define BLOCK_DIM {8 << tuning}\n"})
            results.append((yield from clients[team].submit()))

    system.run(driver())
    return system, results, replacement[0]


@settings(max_examples=60)
@given(job_list=jobs, data=st.data(), stopped=st.integers(0, 1),
       budget=budgets)
def test_index_matches_its_model_and_decides_the_probe(job_list, data,
                                                       stopped, budget):
    stop_at = data.draw(st.integers(1, len(job_list) - 1), label="stop_at")
    seq = itertools.count()
    owner = {}                  # job id -> the worker delivering it
    runs = []                   # every delivery, in order
    cached = defaultdict(set)   # primary -> keys the cache holds
    captures = defaultdict(list)  # key -> [(worker, seq)]
    model = defaultdict(lambda: defaultdict(set))   # worker -> its index
    last_probe = {}             # worker -> seq of its latest probe
    answers = defaultdict(list)  # job id -> [answered by the index?]
    probes = defaultdict(int)   # job id -> probes paid

    job_run_init = pipeline.JobRun.__init__
    lookup, capture, evict, probe = (
        BuildCache.lookup, BuildCache.capture, BuildCache._evict_one,
        pipeline._probe)

    def spy_init(run, worker, job, message):
        job_run_init(run, worker, job, message)
        owner[job.id] = worker
        runs.append(run)

    def spy_lookup(cache, image_key, cwd, command, fs):
        entry = lookup(cache, image_key, cwd, command, fs)
        # The asking job: the latest delivery holding the container.
        job_id = [run.job.id for run in runs if run.container is not None
                  and run.container.fs is fs][-1]
        worker = owner[job_id]
        index = model[worker]
        assert worker.buildcache_index == index
        # Nothing captured elsewhere after this worker's last probe.
        for primary in index:
            for key in index[primary]:
                assert any(capturer is worker
                           or at < last_probe.get(worker, -1)
                           for capturer, at in captures[key])
        answers[job_id].append(
            entry is not None and entry.key in index.get(entry.primary, ()))
        return entry

    def spy_capture(cache, *args, job_id=None, **kwargs):
        entry = capture(cache, *args, job_id=job_id, **kwargs)
        worker = owner[job_id]
        cached[entry.primary].add(entry.key)
        captures[entry.key].append((worker, next(seq)))
        model[worker][entry.primary].add(entry.key)
        return entry

    def spy_evict(cache, key, *args, **kwargs):
        cached[cache._entries[key].primary].discard(key)
        return evict(cache, key, *args, **kwargs)

    def spy_probe(run, image_key, span):
        worker = run.worker
        for command in run.spec.build_commands:
            primary = primary_key(image_key, run.container.workdir, command)
            model[worker][primary] = set(cached[primary])
        last_probe[worker] = next(seq)
        probes[run.job.id] += 1
        return (yield from probe(run, image_key, span))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline.JobRun, "__init__", spy_init)
        patch.setattr(BuildCache, "lookup", spy_lookup)
        patch.setattr(BuildCache, "capture", spy_capture)
        patch.setattr(BuildCache, "_evict_one", spy_evict)
        patch.setattr(pipeline, "_probe", spy_probe)
        system, results, replacement = run_course(job_list, stop_at, stopped,
                                                  budget, patch)

    cache = system.build_cache
    assert cache.verify() == []
    delivered = {owner[r.job_id] for r in results}
    assert len(delivered) >= 2      # work really moved between workers
    for result in results:
        # One probe iff some cacheable answer was not in the index.
        assert probes[result.job_id] == (not all(answers[result.job_id]))
        trace = system.tracer.store.trace_for_job(result.job_id)
        assert sum(name == "buildcache.probe" for span in trace.spans
                   for _, name, _ in span.events) == probes[result.job_id]
    first_on_replacement = next(
        (r for r in results if owner[r.job_id] is replacement), None)
    if first_on_replacement is not None:        # it started empty
        assert answers[first_on_replacement.job_id][0] is False
        assert probes[first_on_replacement.job_id] == 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "STAGES", tuple(
            first_hit_build if stage is pipeline.build else stage
            for stage in pipeline.STAGES))
        oracle, oracle_results, _ = run_course(job_list, stop_at, stopped,
                                               budget, patch)
    assert (cache.hit_count, cache.miss_count, cache.evict_count) == (
        oracle.build_cache.hit_count, oracle.build_cache.miss_count,
        oracle.build_cache.evict_count)
    assert [r.status for r in results] == [r.status for r in oracle_results]
