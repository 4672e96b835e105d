"""Smoke tests of the benchmark itself.

Run with ``python -m pytest bench/tests -q`` (outside the tier-1
``testpaths``).  Timings of ``--smoke`` runs mean nothing; these tests check
outputs, names and the tracer's bookkeeping.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import metrics as M                      # noqa: E402
from bench import tracing                           # noqa: E402
from bench.workloads import NOMINAL_SECONDS, WORKLOADS   # noqa: E402

RUN = [sys.executable, os.path.join(ROOT, "bench", "run.py")]


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    started = time.perf_counter()
    done = subprocess.run(RUN + ["--smoke", "--out", str(out)], cwd=ROOT,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as fh:
        return json.load(fh), done.stdout, elapsed


def test_smoke_passes_the_gate_quickly(smoke):
    document, stdout, elapsed = smoke
    assert elapsed < 60
    assert "timings mean nothing" in stdout
    runs = document["runs"]
    assert {(r["workload"], r["trace"]) for r in runs} == \
        {(w, t) for w in WORKLOADS for t in (0, 1)}
    for run in runs:
        assert run["correct"] and run["failed"] == 0
        assert run["attempted"] == run["samples"] > 0


def test_smoke_prints_every_metric_by_name_and_unit(smoke):
    _, stdout, _ = smoke
    for metric in M.END_TO_END + M.PER_LAYER:
        assert re.search(rf"{re.escape(metric.name)}\s+\S+\s+{metric.unit}\b",
                         stdout), metric.name


def test_traced_pass_reproduces_the_run_and_covers_the_table(smoke):
    document, _, _ = smoke
    by_key = {(r["workload"], r["trace"]): r for r in document["runs"]}
    called = set()
    for workload in WORKLOADS:
        plain, traced = by_key[workload, 0], by_key[workload, 1]
        assert plain["digest"] == traced["digest"]
        assert traced["sim"] == {k: plain["metrics"][k]
                                 for k in M.SIM_METRICS}
        assert traced["metrics"]["trace.unattributed_share"] <= 0.10
        called |= set(traced["entry_points_called"])
        layers = traced["metrics"]
        if workload != "deadline_backlog":
            assert layers["shard.self_us_per_sub"] == 0
        if workload != "course_mix":
            assert layers["durability.self_us_per_sub"] == 0
            assert layers["container.pull_bytes_per_sub"] == 0
        if workload in ("deadline_backlog", "overhead_floor"):
            assert layers["buildcache.lookups_per_sub"] == 0
    assert called == tracing.entry_names(), \
        sorted(tracing.entry_names() - called)


def test_names_units_and_bounds_match_the_contract():
    doc = contract()
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert doc["run_seconds"] == NOMINAL_SECONDS
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in M.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in M.PER_LAYER]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in doc["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


@pytest.mark.parametrize("trace, table", [(0, M.END_TO_END),
                                          (1, M.PER_LAYER)])
def test_driver_result_line(trace, table):
    done = subprocess.run(
        RUN + ["--workload", "overhead_floor", "--seed", "7",
               "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: value["unit"] for name, value
            in result["metrics"].items()} == {m.name: m.unit for m in table}
    assert not os.path.exists(os.path.join(ROOT, ".bench_work"))


def test_no_source_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "overhead_floor",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode != 0
    assert done.stdout == ""


def test_no_import_of_the_drivers_scheduled_for_deletion():
    forbidden = re.compile(
        r"repro\.workload|hotpath|schedbench|shardbench|kernelbench")
    for name in os.listdir(os.path.join(ROOT, "bench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "bench", name)) as fh:
                for line in fh:
                    if line.lstrip().startswith(("import ", "from ")):
                        assert not forbidden.search(line), (name, line)


def _patched_attributes():
    """Every attribute the tracer may touch, as it is now."""
    import importlib

    seen = {}
    for targets in tracing.ENTRY_POINTS.values():
        for target in targets:
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                seen[target] = owner.__dict__[attr]
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("repro"):
            for key, value in list(vars(module).items()):
                if callable(value):
                    seen[f"{name}:{key}"] = value
    return seen


def test_install_then_uninstall_restores_every_attribute():
    import repro.core.system      # noqa: F401  (imports every layer)

    before = _patched_attributes()
    tracer = tracing.LayerTracer()
    tracer.install()
    during = _patched_attributes()
    tracer.uninstall()
    after = _patched_attributes()
    changed = [key for key in before if during[key] is not before[key]]
    rows = sum(len(targets) for targets in tracing.ENTRY_POINTS.values())
    assert len(changed) >= rows
    assert all(after[key] is before[key] for key in before)
    # ``from x import f`` copies are patched too, not just the definition.
    assert "repro.core.worker:pack_tree" in changed
    assert "repro.vfs.archive:pack_tree" in changed


def test_self_time_is_duration_minus_child_cover(monkeypatch):
    clock = iter(range(0, 10_000, 10))
    monkeypatch.setattr(tracing, "_now", lambda: next(clock))
    tracer = tracing.LayerTracer()

    def leaf():
        return "leaf"

    leaf_traced = tracer._wrap_call(leaf, "docdb", "leaf")

    def parent():
        leaf_traced()
        leaf_traced()
        return "parent"

    parent_traced = tracer._wrap_call(parent, "core", "parent")
    assert parent_traced() == "parent"      # inactive: passes through
    assert tracer.stats[("core", "parent")] == [0, 0, 0]
    tracer.start()                          # reads the clock once: t=0
    parent_traced()
    tracer.stop()
    # Clock reads: parent in 10, leaf 20-30, leaf 40-50, parent out 60.
    assert tracer.stats[("docdb", "leaf")] == [2, 20, 20]
    assert tracer.stats[("core", "parent")] == [1, 50, 30]
    assert tracer.layer_self_ns() == {"docdb": 20, "core": 30}


def test_generator_resumes_are_charged_to_the_owner(monkeypatch):
    clock = iter(range(0, 10_000, 10))
    monkeypatch.setattr(tracing, "_now", lambda: next(clock))
    tracer = tracing.LayerTracer()

    def body():
        got = yield "first"
        assert got == "sent"
        try:
            yield "second"
        except KeyError:
            yield "caught"
        return "done"

    proxy = tracer._proxy(body(), "core", "body", [None])
    tracer.start()
    assert next(proxy) == "first"
    assert proxy.send("sent") == "second"
    assert proxy.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(proxy)
    assert stop.value.value == "done"
    assert tracer.stats[("core", "body")] == [4, 40, 40]


def test_percentile_and_verdicts():
    assert M.percentile(range(1, 101), 99) == 99
    assert M.percentile([5.0], 99) == 5.0
    host = next(m for m in M.END_TO_END if m.name == "host_us_per_sub")
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert M.verdict(base, [x * 1.3 for x in base], host) == "regressed"
    assert M.verdict(base, [x * 0.7 for x in base], host) == "improved"
    assert M.verdict(base, [x * 1.01 for x in base], host) == "unchanged"
    wide = [80.0, 120.0, 100.0, 90.0, 115.0]
    assert M.verdict(wide, [85.0, 118.0, 101.0, 92.0, 112.0], host) == \
        "unresolved"
