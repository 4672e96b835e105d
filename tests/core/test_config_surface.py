"""The configuration surface stays small: every field earns its place.

A field of :class:`SystemConfig` or :class:`WorkerConfig` must be read by
the code, and must either be set by name by a non-test caller (a
``SystemConfig(...)`` / ``WorkerConfig(...)`` keyword under ``src/``,
``bench/``, ``benchmarks/`` or ``examples/``, or a ``--set name=value``
knob string) or sit in :data:`KEPT` with its reason.  A number nothing
varies belongs beside its one reader, as its component's constructor
default or a named module constant.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.config import SystemConfig, WorkerConfig

ROOT = Path(__file__).resolve().parents[2]
CONFIG_PY = ROOT / "src" / "repro" / "core" / "config.py"
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")
CONFIG_CLASSES = {"SystemConfig", "WorkerConfig"}

FIELDS = ([f.name for f in fields(SystemConfig)]
          + [f.name for f in fields(WorkerConfig)])

#: Fields no non-test caller sets, and why each stays a field.
KEPT = {
    # Deployment settings: one value per deployment, not per experiment.
    "upload_bucket": "deployment setting: the file server's upload bucket",
    "build_bucket": "deployment setting: the file server's build bucket",
    "course_name": "deployment setting: the course tenants meter under",
    "course_deadline_at": "deployment setting: this course's deadline",
    "pull_bandwidth_bps": "deployment setting: the worker host's registry "
                          "link (the boot pull's length)",
    # Invariant references: the off switch is what a promise is stated over.
    "tracing_enabled": "invariant: observers off => GOLDEN_DIGEST",
    "event_log_enabled": "invariant: observers off => GOLDEN_DIGEST",
    "usage_metering_enabled": "invariant: observers off => GOLDEN_DIGEST",
    "buildcache_enabled": "invariant: cache on/off => byte-identical grading",
    # Set only by tests; each is a candidate for a constant.
    "client_wait_timeout_seconds": "set only by tests",
    "trace_max_traces": "set only by tests",
    "deadline_boost_window_seconds": "set only by tests",
    "scrape_interval_seconds": "set only by tests",
    "slo_fast_window_seconds": "set only by tests",
    "slo_slow_window_seconds": "set only by tests",
    "shard_seed": "set only by tests",
    "usage_window_seconds": "set only by tests",
    "job_deadline_seconds": "set only by tests",
    "storage_retry": "set only by tests",
    "fetch_cache_bytes": "set only by tests",
    "warm_pool_size": "per-slot depth; tests set 0 to turn the pool off",
    "container_create_seconds": "set only by tests",
}

#: Fields retired because nothing set them; their values live beside
#: their readers now.  Re-adding one is a decision, not an accident.
RETIRED = (
    "client_bandwidth_bps", "upload_lifetime_seconds",
    "build_lifetime_seconds", "presign_expiry_seconds",
    "dead_letter_sweep_seconds", "chunk_size_bytes", "sched_quantum_seconds",
    "event_log_max_events", "scrape_max_samples", "slo_burn_rate_threshold",
    "slo_queue_wait_p95_seconds", "slo_success_target",
    "buildcache_max_bytes", "buildcache_ttl_seconds",
    "buildcache_replay_seconds", "buildcache_hit_cost_factor",
    "usage_budget_window_seconds", "solo_jitter", "contention_jitter",
    "warm_pool_ttl_seconds",
)


def _modules(*dirs):
    """Parsed non-test modules under ``dirs``, ``config.py`` excluded."""
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts or path == CONFIG_PY:
                continue
            yield ast.parse(path.read_text(), filename=str(path))


def _reads():
    return {node.attr
            for tree in _modules("src/repro") for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _sets():
    names = set()
    for tree in _modules(*CALLER_DIRS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in CONFIG_CLASSES:
                    names.update(k.arg for k in node.keywords if k.arg)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) and "=" in node.value:
                names.add(node.value.partition("=")[0])
    return names


READS = _reads()
SETS = _sets()


@pytest.mark.parametrize("name", FIELDS)
def test_field_is_read(name):
    assert name in READS, f"config field {name!r} is never read"


@pytest.mark.parametrize("name", FIELDS)
def test_field_is_set_or_kept(name):
    assert name in SETS or name in KEPT, (
        f"config field {name!r} is set by no bench, example or caller: "
        "make it its component's default or a constant beside its reader")


def test_kept_names_only_fields():
    assert set(KEPT) <= set(FIELDS), set(KEPT) - set(FIELDS)


def test_retired_fields_stay_retired():
    assert not set(RETIRED) & set(FIELDS)
    assert len(FIELDS) <= 30, "the surface only shrinks"
