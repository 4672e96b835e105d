"""The frozen benchmark patches the program by name; keep the names.

``bench/tracing.py`` swaps every ``module:attr`` row of ``ENTRY_POINTS``
for a timing wrapper, charges a kernel process to the file its generator
is defined in, and learns the worker-side job from ``start_span``'s
keywords.  A change that renames, inlines or moves one of those would
only fail in the pipeline's traced pass — this fails in tier-1 instead.
"""

import ast
import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.tracing import (  # noqa: E402
    ENTRY_POINTS,
    _OWNER_RE,
    LayerTracer,
    entry_name,
)

from repro.core.job import JobStatus  # noqa: E402
from repro.core.system import RaiSystem  # noqa: E402
from repro.core.worker import RaiWorker  # noqa: E402
from repro.obs.tracer import Tracer  # noqa: E402


def test_every_entry_point_resolves_to_a_callable():
    targets = [target for targets in ENTRY_POINTS.values()
               for target in targets]
    assert "repro.vfs.archive:pack_tree" in targets
    unresolved = []
    for target in targets:
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{target}: {exc}")
            continue
        if not callable(owner):
            unresolved.append(f"{target}: not callable")
    assert not unresolved, "\n".join(unresolved)


def test_executor_loop_is_charged_to_core_worker():
    filename = RaiWorker._executor_loop.__code__.co_filename
    assert filename.replace(os.sep, "/").endswith("repro/core/worker.py")
    assert _OWNER_RE.search(filename).groups() == ("core", "worker")


def test_worker_job_span_names_its_job_by_keyword(monkeypatch):
    seen = []
    start_span = Tracer.start_span

    def spy(self, name, *args, **kwargs):
        seen.append((name, args, kwargs))
        return start_span(self, name, *args, **kwargs)

    monkeypatch.setattr(Tracer, "start_span", spy)
    system = RaiSystem.standard(num_workers=1, seed=1)
    client = system.new_client(team="t")
    client.stage_project({"main.cu": "// @rai-sim quality=0.8\n"})
    result = system.run(client.submit())
    (args, kwargs), = [(a, k) for name, a, k in seen if name == "worker.job"]
    assert args == () and kwargs["job_id"] == result.job_id


def test_gpu_entry_points_are_entered_on_a_fully_warm_job():
    """``repro.gpu`` computes each distinct input once *inside* its entry
    points.  A memo moved in front of one (in ``ece408``, say) would leave
    the traced pass — which runs after a warm-up and a plain repeat in the
    same process — with ``infer`` never called, and ``bench/tests`` red."""
    assert set(ENTRY_POINTS["gpu"]) == {
        "repro.gpu.cnn:infer", "repro.gpu.cnn:accuracy",
        "repro.gpu.hdf5sim:read_h5s", "repro.gpu.kernels:cnn_job_time",
        "repro.gpu.kernels:kernel_timeline"}
    entered = {}

    def counting(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                entered[name] = entered.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    tracer = LayerTracer()
    try:
        for target in ENTRY_POINTS["gpu"]:
            tracer.patch(target, counting(entry_name(target)))
        system = RaiSystem.standard(num_workers=1, seed=1)
        for team in ("cold", "warm"):
            entered.clear()
            client = system.new_client(team=team)
            client.stage_project(
                {"main.cu": "// @rai-sim quality=0.8 impl=im2col\n"})
            assert system.run(client.submit()).status is JobStatus.SUCCEEDED
    finally:
        tracer.uninstall()
    # Listing 1: ``./ece408 …`` and the same under ``nvprof``.
    assert entered == {"read_h5s": 4, "cnn_job_time": 2, "infer": 2,
                       "accuracy": 2, "kernel_timeline": 1}


def _core_trees(*modules):
    core = os.path.join(ROOT, "src", "repro", "core")
    for name in modules or sorted(
            f[:-3] for f in os.listdir(core) if f.endswith(".py")):
        with open(os.path.join(core, f"{name}.py")) as fh:
            yield name, ast.parse(fh.read())


def test_no_function_in_the_worker_regrows():
    """``_process_job`` was once a 414-line generator, and
    ``interactive._serve_one`` a 125-line copy of it."""
    too_long = []
    for module, tree in _core_trees("worker", "pipeline", "interactive"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                length = node.end_lineno - node.lineno + 1
                if length > 80 or \
                        (node.name == "_process_job" and length > 60):
                    too_long.append(f"{module}.{node.name}: {length} lines")
    assert not too_long, too_long


def test_core_catches_only_what_it_names():
    """No ``except Exception`` (or bare ``except``) under ``repro/core``:
    an outcome is a ``FAILURES`` row or a named error; a bug is loud."""
    broad = []
    for module, tree in _core_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            if any(t is None or getattr(t, "id", None)
                   in ("Exception", "BaseException") for t in caught):
                broad.append(f"{module}.py:{node.lineno}")
    assert not broad, broad
