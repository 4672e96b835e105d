"""A course grades each distinct input once — pinned by count, not clock.

Every submission runs ``./ece408 /data/test10.hdf5 /data/model.hdf5 10``
and the same again under ``nvprof`` against files that never change.
``repro.gpu`` parses each container once and runs each distinct inference
once; this counts what was *entered*, which repeats exactly on any machine,
and checks that a warm process prints what a fresh one does and leaves
every random stream where a cold one does.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.broker.message import message_pool, reset_message_ids
from repro.container.image import course_data_files
from repro.core.job import JobStatus, reset_job_ids
from repro.core.system import RaiSystem
from repro.gpu import cnn, hdf5sim, kernels
from repro.obs.context import reset_obs_ids

pytestmark = pytest.mark.perf

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
ROUNDS = 26

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=im2col\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def resubmit(rounds=ROUNDS):
    """One ``impl=im2col`` student on one deployment: the default Listing-1
    build (two ``ece408`` runs), then ``rounds - 1`` resubmissions that
    change a file no build command reads."""
    system = RaiSystem.standard(num_workers=1, seed=11)
    client = system.new_client(team="stu")
    client.stage_project(FILES)
    results = []

    def student():
        for round_no in range(rounds):
            if round_no:
                yield system.sim.timeout(31.0)    # the 30 s rate limit
            client.stage_project({"zz_tuning.cfg": f"round={round_no}\n"})
            results.append((yield from client.submit()))

    system.run(student())
    assert [r.status for r in results] == [JobStatus.SUCCEEDED] * rounds
    return system, results


def graded_lines(result):
    return "".join(
        line for line in result.stdout_text().splitlines(keepends=True)
        if line.startswith(("Correctness:", "Elapsed time:")))


def forget():
    hdf5sim._parse.cache_clear()
    cnn._logits_memo.clear()
    kernels._job_time.cache_clear()
    kernels._default_kernel_rows.cache_clear()


def test_26_resubmissions_enter_the_convolution_twice(monkeypatch):
    course_data_files()     # labelling test10 runs the network itself
    forget()
    entered = []
    im2col = cnn._conv2d_im2col

    def counted(x, w, b):
        entered.append(w.shape)
        return im2col(x, w, b)

    monkeypatch.setattr(cnn, "_conv2d_im2col", counted)
    _, results = resubmit()
    assert entered == [(32, 1, 5, 5), (64, 32, 5, 5)]     # conv1, conv2
    parses = hdf5sim._parse.cache_info()
    assert parses.misses == 2                       # test10.hdf5, model.hdf5
    assert parses.hits == ROUNDS * 2 * 2 - 2
    assert kernels._job_time.cache_info().misses == 1
    assert kernels._default_kernel_rows.cache_info().misses == 1

    last = graded_lines(results[-1])
    assert last.count("Correctness: 1.0000 Model: ece408\n") == 2
    fresh = subprocess.run(
        [sys.executable, "-c",
         "from tests.perf.test_gpu_memo import graded_lines, resubmit\n"
         "print(graded_lines(resubmit()[1][-1]), end='')"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [ROOT, os.path.join(ROOT, "src")])})
    assert fresh.stdout == last


def test_memos_are_bounded_by_a_small_entry_count():
    """A student's 100 MB "dataset" is let go after a few other inputs."""
    assert 0 < hdf5sim.PARSE_MEMO_SIZE <= 16
    assert 0 < cnn.INFER_MEMO_SIZE <= 64
    for fn in (kernels._job_time, kernels._default_kernel_rows):
        assert 0 < fn.cache_info().maxsize <= 2048
    weights = cnn.generate_model_weights()
    for i in range(cnn.INFER_MEMO_SIZE + 3):
        blob = hdf5sim.write_h5s(
            {"images": np.full((1, 1, 28, 28), i, dtype=np.float32)})
        cnn.infer(hdf5sim.read_h5s(blob)["images"], weights)
    assert hdf5sim._parse.cache_info().currsize == hdf5sim.PARSE_MEMO_SIZE
    assert len(cnn._logits_memo) == cnn.INFER_MEMO_SIZE


def test_warm_and_cold_leave_every_random_stream_in_the_same_place():
    """Nothing memoised draws a random number, so serving it from the
    memo burns none: golden digests need no re-capture."""
    def observe():
        reset_message_ids()
        reset_job_ids()
        reset_obs_ids()
        message_pool._free.clear()
        system, results = resubmit(rounds=3)
        streams = {name: gen.bit_generator.state
                   for name, gen in system.rng._streams.items()}
        jobs = [(r.job_id, r.status, r.exit_code, r.stdout_text(),
                 r.stderr_text()) for r in results]
        return streams, jobs, system.sim.now

    course_data_files()
    forget()
    cold = observe()
    assert hdf5sim._parse.cache_info().misses == 2
    warm = observe()
    assert hdf5sim._parse.cache_info().misses == 2
    assert warm == cold and len(cold[0]) > 0
