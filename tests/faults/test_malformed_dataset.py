"""A student's own ``.hdf5`` fails one job; it never stops the worker.

``./ece408 /src/evil.hdf5 /data/model.hdf5 10`` reads a file the student
uploaded.  Bytes that are not a container, and a container that is not a
course dataset or model, both end the run with ``ece408: cannot load …``
and exit 66 — once with a 7-byte file and once with a ``(2, 3, 5, 5)``
dataset an exception left ``Simulator.run`` instead.
"""

import struct

import numpy as np
import pytest

from repro.container.image import course_data_files
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.gpu.cnn import generate_model_weights
from repro.gpu.hdf5sim import MAGIC, read_h5s, write_h5s

SPEC = """\
rai:
  version: 0.1
  image: webgpu/rai:root
commands:
  build:
    - cmake /src
    - make
    - ./ece408 {dataset} {model} 10
"""

SOURCES = {
    "main.cu": "// @rai-sim quality=0.8 impl=im2col\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def header(name=b"x", tag=b"uint8", dims=()):
    return (struct.pack("<H", len(name)) + name + tag.ljust(8, b"\x00")
            + struct.pack("<B", len(dims))
            + b"".join(struct.pack("<Q", dim) for dim in dims))


def one(dataset_header, payload=b""):
    return MAGIC + struct.pack("<I", 1) + dataset_header + payload


#: Bytes that are not a container; each raised something other than
#: ``H5SimError`` from ``read_h5s`` before the parse checked its lengths.
NOT_A_CONTAINER = {
    "seven_bytes": MAGIC,
    "name_not_utf8": one(header(name=b"\xff\xfe")),
    "dtype_not_ascii": one(header(tag=b"\xe9\xe9")),
    "dim_of_2_to_63": one(header(dims=(2 ** 63, 0))),
    "count_of_2_to_32": MAGIC + struct.pack("<I", 2 ** 32 - 1),
}


def wrong_conv1():
    weights = generate_model_weights()
    weights["conv1.weight"] = np.zeros((32, 1, 3, 3), dtype=np.float32)
    return write_h5s(weights)


def course_images():
    return read_h5s(course_data_files()["data/test10.hdf5"])["images"]


#: Well-formed containers with the wrong contents: (file it replaces,
#: bytes, what stderr names).
WRONG_CONTENTS = {
    "images_2x3x5x5": ("dataset", write_h5s(
        {"images": np.zeros((2, 3, 5, 5), dtype=np.float32)}),
        "images have shape (2, 3, 5, 5)"),
    "no_labels": ("dataset", write_h5s(
        {"images": course_images()}), "10 images need 10 labels"),
    "empty_count": ("dataset", write_h5s(
        {"count": np.zeros(0, dtype=np.int64)}), "count must be one integer"),
    "conv1_weight_3x3": ("model", wrong_conv1(),
                         "conv1.weight has shape (32, 1, 3, 3)"),
}

CASES = {**{name: ("dataset", blob, "")
            for name, blob in NOT_A_CONTAINER.items()}, **WRONG_CONTENTS}


def project(replaces=None, blob=None):
    paths = {"dataset": "/data/test10.hdf5", "model": "/data/model.hdf5"}
    files = dict(SOURCES)
    if replaces is not None:
        paths[replaces] = "/src/evil.hdf5"
        files["evil.hdf5"] = blob
    files["rai-build.yml"] = SPEC.format(**paths)
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_malformed_file_fails_the_job_and_worker_lives(name):
    replaces, blob, detail = CASES[name]
    system = RaiSystem.standard(num_workers=1, seed=5)
    bad = system.new_client(team="bad")
    bad.stage_project(project(replaces, blob))
    result = system.run(bad.submit())
    assert result.status is JobStatus.FAILED and result.exit_code == 66
    assert f"ece408: cannot load {replaces} /src/evil.hdf5: {detail}" \
        in result.stderr_text()
    assert "Correctness" not in result.stdout_text()
    assert system.db.collection("submissions").count_documents(
        {"job_id": result.job_id}) == 1

    good = system.new_client(team="good")
    good.stage_project(project())
    after = system.run(good.submit())
    assert after.status is JobStatus.SUCCEEDED
    assert "Correctness: 1.0000" in after.stdout_text()
    worker = system.workers[0]
    assert worker.is_running and worker.active_jobs == 0
    assert system.broker.dead_letter_count() == 0


def test_a_parse_failure_is_raised_again_not_remembered():
    """Two submissions of the same bad bytes fail alike: the parse memo
    keeps results, never errors."""
    system = RaiSystem.standard(num_workers=1, seed=5)
    outcomes = []
    for team in ("first", "second"):
        client = system.new_client(team=team)
        client.stage_project(project("dataset", MAGIC))
        result = system.run(client.submit())
        outcomes.append((result.status, result.exit_code))
    assert outcomes == [(JobStatus.FAILED, 66)] * 2
