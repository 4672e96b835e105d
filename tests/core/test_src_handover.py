"""``/src`` is handed over, and a job builds no tree it can borrow.

The worker unpacks a job's project into a tree that delivery owns, and
``acquire`` mounts that very node at ``/src``: no copy, and no second
holder, so the container's read-only prefix is the tree's only guard.
The image's and the CUDA volume's trees are frozen once per process and
stamped per container, so a job's path runs no ``import_mapping`` and no
``graft``; and the client's manifest travels with the upload, so
``Manifest.from_bytes`` runs once per upload.
"""

import gc

import pytest

from repro.container.container import Container
from repro.core.config import WorkerConfig
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.storage.chunkstore import Manifest
from repro.vfs import VirtualFileSystem
from tests.golden import deployment

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


class Spy:
    """Record what fetch unpacked into and what each build saw at
    ``/src``, from inside the running job."""

    def __init__(self, monkeypatch):
        self.fetched = []        # the root of each tree a fetch built
        self.seen = []           # per exec: (/src node's id, sole holder?)
        extract = VirtualFileSystem.extract
        exec_line = Container.exec_line
        spy = self

        def extracting(fs, base, members):
            written = extract(fs, base, members)
            spy.fetched.append(fs.root)
            return written

        def executing(container, line):
            node = container.fs._resolve("/src")
            holders = [ref for ref in gc.get_referrers(node)
                       if ref is not spy.fetched and not _is_frame(ref)]
            spy.seen.append((id(node),
                             holders == [container.fs.root.children]))
            return exec_line(container, line)

        monkeypatch.setattr(VirtualFileSystem, "extract", extracting)
        monkeypatch.setattr(Container, "exec_line", executing)


def _is_frame(ref) -> bool:
    return type(ref).__name__ == "frame"


def _submit(system, files=FILES, build=None):
    client = system.new_client(team="t")
    client.stage_project(files)
    if build is not None:
        client.set_build_file(build)
    return client, system.run(client.submit())


def test_the_fetched_tree_is_mounted_as_is_and_held_only_there(
        monkeypatch):
    spy = Spy(monkeypatch)
    system = RaiSystem.standard(num_workers=1, seed=3)
    _, result = _submit(system)
    assert result.status is JobStatus.SUCCEEDED
    (fetched,) = spy.fetched
    assert spy.seen
    assert spy.seen == [(id(fetched), True)] * len(spy.seen)


@pytest.mark.parametrize("command, error", [
    ("rm -f /src/main.cu",
     "rm: cannot remove '/src/main.cu': Read-only file system"),
    ("touch /src/extra", "touch: /src/extra is read-only (under /src)"),
    ("echo hi > /src/main.cu", "echo: /src/main.cu is read-only"),
    ("mkdir /src/d", "mkdir: /src/d is read-only"),
])
def test_a_build_cannot_write_under_src(command, error):
    """The job fails with the refusal on its stderr; the worker lives on
    and the next job sees the project as uploaded."""
    system = RaiSystem.standard(num_workers=1, seed=3)
    build = ("rai:\n  version: 0.1\n  image: webgpu/rai:root\n"
             f"commands:\n  build:\n    - {command}\n")
    _, result = _submit(system, build=build)
    assert result.status is JobStatus.FAILED
    assert error in result.stderr_text()
    check = ("rai:\n  version: 0.1\n  image: webgpu/rai:root\n"
             "commands:\n  build:\n    - ls /src\n")
    system.run(system.sim.timeout(system.config.rate_limit_seconds + 1))
    _, after = _submit(system, build=check)
    assert after.status is JobStatus.SUCCEEDED
    assert after.stdout_text().split() == sorted(["main.cu",
                                                  "CMakeLists.txt",
                                                  "rai-build.yml"])


def test_a_redelivered_job_fetches_its_own_tree(monkeypatch):
    spy = Spy(monkeypatch)
    system = deployment(num_workers=1, seed=61,
                        worker_config=WorkerConfig(max_concurrent_jobs=1))
    system.start_caretaker(interval=30.0, in_flight_timeout=120.0)
    victim = system.workers[0]
    client = system.new_client(team="t")
    client.stage_project(FILES)
    job = system.sim.process(client.submit())

    def crash(sim):
        yield sim.timeout(6.0)
        assert victim.active_jobs
        victim.crash()

    system.run(system.sim.process(crash(system.sim)))
    system.add_worker()
    result = system.run(job)
    assert result.status is JobStatus.SUCCEEDED
    assert result.worker_id != victim.id
    first, second = spy.fetched
    assert first is not second
    assert spy.seen[-1] == (id(second), True)


@pytest.fixture
def counts(monkeypatch):
    """Calls per name of the tree builders a job could reach for."""
    calls = {}

    def counting(owner, name):
        raw = owner.__dict__[name]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, classmethod(wrapper)
                            if isinstance(raw, classmethod) else wrapper)

    counting(VirtualFileSystem, "import_mapping")
    counting(VirtualFileSystem, "graft")
    counting(Manifest, "from_bytes")
    return calls


def test_a_job_builds_no_tree_and_chunks_its_upload_once(counts):
    system = RaiSystem.standard(num_workers=1, seed=3)
    _submit(system)                 # the frozen trees are built here
    for team in ("a", "b"):
        client = system.new_client(team=team)
        client.stage_project(FILES)
        counts.clear()
        result = system.run(client.submit())
        assert result.status is JobStatus.SUCCEEDED
        assert counts == {"from_bytes": 1}
