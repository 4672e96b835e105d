"""The public surface stays reached: every def and parameter earns its place.

A public def under ``src/repro`` (a module function, class or method whose
qualified name has no ``_``-prefixed part) must be reached by one of the
system's own callers, run under ``sys.setprofile`` in a subprocess by
``tests/reachability_roots.py``: the benchmark workloads at smoke scale,
the fast examples, the paper set's probes, a tour of every ``rai`` verb
and the instructor's audit of a sharded deployment.
Otherwise it sits in :data:`KEPT` with a reason from a closed set; a kept
class keeps its methods.  "Only a test calls it" is not a reason: delete
the def, and the test with it.

Likewise every defaulted parameter of a reached def (``__init__``
included) must be passed a value other than its default by some root, or
sit in :data:`KEPT_PARAMS` with a reason.  A value nothing varies is a
constant beside its reader, not a parameter.
"""

import json
import re
import subprocess
import sys
from dataclasses import fields

import pytest

from repro.core.config import SystemConfig, WorkerConfig
from tests.reachability_roots import ROOT, public_defs

#: Defs no root reaches, and why each stays.  Reasons come from a closed
#: set: ``safety`` (WAL / snapshot replay, input validation, recovery),
#: ``paper §N`` (a paper function no root drives yet), ``chaos`` (fault
#: injection), ``guest command`` (a command a student's build spec may
#: run) and ``frozen reader: bench/<file>:<line>`` (the benchmark reads it
#: and cannot change here).
KEPT = {
    # Guest commands: a build spec's ``commands`` may run any of them.
    "repro.container.commands.coreutils:Mv": "guest command: mv",
    "repro.container.commands.coreutils:Mkdir": "guest command: mkdir",
    "repro.container.commands.coreutils:Touch": "guest command: touch",
    "repro.container.commands.coreutils:Pwd": "guest command: pwd",
    "repro.container.commands.coreutils:Env": "guest command: env",
    "repro.container.commands.coreutils:Sleep": "guest command: sleep",
    "repro.container.commands.coreutils:Hostname": "guest command: hostname",
    "repro.container.commands.coreutils:Curl":
        "guest command: curl, refused inside the sandbox",
    "repro.container.commands.coreutils:TrueCmd": "guest command: true",
    "repro.container.commands.coreutils:FalseCmd": "guest command: false",
    "repro.container.commands.ece408:NvidiaSmi":
        "guest command: nvidia-smi from the CUDA volume",
    "repro.vfs.filesystem:VirtualFileSystem.move": "guest command: mv's move",
    "repro.container.container:ExecContext.push_stdout_capture":
        "guest command: the shell's > and >> redirection",
    "repro.container.container:ExecContext.pop_stdout_capture":
        "guest command: the shell's > and >> redirection",
    "repro.vfs.filesystem:VirtualFileSystem.append_file":
        "guest command: the shell's >> redirection",
    # Chaos: seeded fault injection.
    "repro.faults.injector:FaultInjector": "chaos: the fault injector",
    "repro.faults.plan:FaultPlan": "chaos: a seeded fault schedule",
    "repro.faults.plan:WorkerCrashFault": "chaos: a fault plan row",
    "repro.faults.plan:StorageFault": "chaos: a fault plan row",
    "repro.faults.plan:BrokerFault": "chaos: a fault plan row",
    "repro.faults.plan:ContainerKillFault": "chaos: a fault plan row",
    "repro.faults.crashpoint:CrashPoint": "chaos: a crash inside a WAL write",
    "repro.faults.crashpoint:tear_tail": "chaos: a torn WAL tail",
    "repro.core.system:RaiSystem.start_fault_plan":
        "chaos: runs a fault plan against the deployment",
    "repro.core.worker:RaiWorker.crash": "chaos: a worker host dies",
    "repro.container.container:Container.stop":
        "chaos: a container killed mid-job",
    # Safety: recovery of stuck and dead messages, retries, failed stages.
    "repro.core.system:RaiSystem.start_caretaker":
        "safety: recovery, redelivers messages a dead consumer held",
    "repro.broker.broker:MessageBroker.caretaker":
        "safety: recovery, the caretaker loop",
    "repro.broker.broker:MessageBroker.requeue_stale":
        "safety: recovery, redelivers stale in-flight messages",
    "repro.broker.topic:Channel.requeue_stale":
        "safety: recovery, redelivers stale in-flight messages",
    "repro.broker.topic:Channel.requeue":
        "safety: recovery, a redelivery or a dead letter",
    "repro.core.system:RaiSystem.start_dead_letter_consumer":
        "safety: recovery, drains dead letters as they land",
    "repro.core.system:RaiSystem.drain_dead_letters":
        "safety: recovery, records each dead-lettered job once",
    "repro.broker.broker:MessageBroker.drain_dead_letters":
        "safety: recovery, empties every dead-letter list",
    "repro.broker.topic:Channel.drain_dead_letters":
        "safety: recovery, empties a channel's dead-letter list",
    "repro.broker.topic:Channel.unclaim":
        "safety: recovery, a requeue's state change, live and on WAL replay",
    "repro.broker.topic:Channel.remove_dead_letters":
        "safety: recovery, a drain's state change, live and on WAL replay",
    "repro.faults.retry:RetryPolicy.backoff":
        "safety: recovery, backoff after a transient storage error",
    "repro.core.pipeline:fail":
        "safety: the failure table ends a job whose stage raised",
    "repro.broker.client:Consumer.requeue":
        "safety: recovery, an unparseable message goes back to its queue",
    "repro.shard.steal:StealingConsumer.requeue":
        "safety: recovery, an unparseable message goes back to its queue",
    "repro.shard.steal:StealingConsumer.ack":
        "safety: a worker stopped mid-job acks the job it reported failed",
    "repro.sim.events:Event.fail":
        "safety: a failed child event fails the condition waiting on it",
    "repro.obs.span:NoopSpan":
        "safety: the observers-off path (observers_enabled=False) the "
        "GOLDEN_DIGEST invariant is stated over",
    # Safety: every state change under a WAL is journaled, and replay
    # rebuilds it; the roots make these changes before durability attaches.
    "repro.durability.manager:DurabilityManager.docdb_index":
        "safety: WAL record of an index build",
    "repro.durability.manager:DurabilityManager.broker_channel":
        "safety: WAL record of a channel's creation",
    "repro.durability.manager:DurabilityManager.broker_requeue":
        "safety: WAL record of a redelivery",
    "repro.durability.manager:DurabilityManager.broker_dl_drain":
        "safety: WAL record of a dead-letter drain",
    "repro.durability.manager:DurabilityManager.storage_bucket":
        "safety: WAL record of a bucket's creation",
    "repro.durability.manager:DurabilityManager.storage_delete":
        "safety: WAL record of an object's deletion",
    "repro.durability.manager:DurabilityManager.storage_rule":
        "safety: WAL record of a lifecycle rule",
    "repro.storage.object_store:ObjectStore.delete_object":
        "safety: WAL replay of an object's deletion",
    # The paper's functions no root drives yet.
    "repro.storage.object_store:ObjectStore.run_lifecycle_sweep":
        "paper §IV: uploads expire 1-3 months after last use",
    "repro.storage.object_store:ObjectStore.lifecycle_sweeper":
        "paper §IV: the sweep, run periodically",
    "repro.storage.lifecycle:LifecycleRule.matches":
        "paper §IV: a lifecycle rule's key prefix",
    "repro.storage.lifecycle:LifecycleRule.is_expired":
        "paper §IV: a lifecycle rule's age test",
    "repro.storage.chunkstore:ChunkStore.release":
        "paper §IV: an expired upload frees its chunks",
    "repro.buildspec.spec:ResourceRequest":
        "paper §V: a build spec's machine requirements",
    # The benchmark patches these by name (bench/tracing.py ENTRY_POINTS).
    "repro.container.runtime:ContainerRuntime.pull_cost_seconds":
        "frozen reader: bench/tracing.py:128",
}

#: The kept surface only shrinks.
KEPT_CEILING = 59

REASON = re.compile(r"(safety|chaos|guest command|paper §[IVX]+): \S.*"
                    r"|frozen reader: bench/[\w/]+\.py:\d+")

#: Defaulted parameters no root varies, and why each stays one.  Reasons
#: come from :data:`KEPT`'s closed set (``paper §N`` only where the paper
#: says the value is configurable) plus three: ``invariant`` (an observer's
#: or the cache's off switch, what a promise is stated over), ``config:
#: <field>`` (it carries a ``SystemConfig`` / ``WorkerConfig`` field) and
#: ``seam: <collaborator>`` (an object a test substitutes: never a
#: number, string or bool).
KEPT_PARAMS = {
    "repro.obs.events:EventLog.__init__(enabled)":
        "invariant: observers off => GOLDEN_DIGEST",
    "repro.obs.tracer:Tracer.__init__(enabled)":
        "invariant: observers off => GOLDEN_DIGEST",
    "repro.obs.usage:UsageMeter.__init__(enabled)":
        "invariant: observers off => GOLDEN_DIGEST",
    "repro.obs.usage:UsageMeter.__init__(course)": "config: course_name",
    "repro.container.pool:WarmContainerPool.__init__(reset_seconds)":
        "config: container_reset_seconds",
    "repro.container.runtime:ContainerRuntime.__init__(pull_bandwidth_bps)":
        "config: pull_bandwidth_bps",
    "repro.core.system:RaiSystem.__init__(registry)":
        "seam: the image registry (a course's own, or a broken one)",
    "repro.core.client:RaiClient.submit(wait_timeout)":
        "chaos: a client stops waiting for a job its crashed worker held",
    "repro.gpu.cnn:infer(impl)":
        "guest command: ece408 runs a source marker's impl=reference",
    "repro.grading.evaluator:GradingEvaluator.evaluate(repetitions)":
        "paper §VI: the tool can be instructed to rerun submissions "
        "multiple times",
    "repro.cluster.provisioner:Provisioner.launch(max_concurrent_jobs)":
        "frozen reader: bench/workloads.py:180",
}

#: The kept parameters only shrink.
KEPT_PARAMS_CEILING = 11

PARAM_REASON = re.compile(r"(safety|chaos|guest command|paper §[IVX]+"
                          r"|invariant|seam): \S.*|config: (\w+)"
                          r"|frozen reader: bench/[\w/]+\.py:\d+")

#: Default types a ``seam`` may not have, and the one ``invariant`` has.
VALUES = {"int", "float", "str", "bool"}
SWITCH = "bool"

DEFS = public_defs()
#: Every config field (``test_config_surface`` holds each set or kept).
CONFIG_FIELDS = {f.name for config in (SystemConfig, WorkerConfig)
                 for f in fields(config)}


@pytest.fixture(scope="module")
def census():
    """What the roots reach and vary (one subprocess run): ``reached``
    def names; ``unvaried``, defaulted parameters no call varied, each
    with its default's type name; ``varied``, the rest."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "reachability_roots.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def reached(census):
    """Names of the public defs the roots reach."""
    return set(census["reached"])


def _kept(name: str) -> bool:
    """``name`` or a class that encloses it is kept."""
    module, _, qualname = name.partition(":")
    parts = qualname.split(".")
    return any(f"{module}:{'.'.join(parts[:i])}" in KEPT
               for i in range(1, len(parts) + 1))


def test_every_public_def_is_reached_or_kept(reached):
    missing = sorted(name for name in DEFS
                     if name not in reached and not _kept(name))
    assert not missing, (
        "public defs no root reaches: delete each, or keep it with a "
        "reason (tests/core/test_reachability.py KEPT):\n  "
        + "\n  ".join(missing))


def test_kept_names_a_def():
    assert not set(KEPT) - set(DEFS), set(KEPT) - set(DEFS)


def test_kept_is_not_reached(reached):
    stale = sorted(set(KEPT) & reached)
    assert not stale, f"kept defs a root now reaches: {stale}"


def _cites_its_reader(name: str, reason: str) -> bool:
    """A ``frozen reader`` reason's benchmark line names the kept def (or,
    for a parameter, the parameter)."""
    path, _, line = reason.split(": ", 1)[1].rpartition(":")
    lines = (ROOT / path).read_text().splitlines()
    word = name[name.index("(") + 1:-1] if name.endswith(")") else \
        name.rpartition(":")[2].rpartition(".")[2]
    return int(line) <= len(lines) and word in lines[int(line) - 1]


def test_kept_reasons_are_from_the_closed_set():
    bad = {name: reason for name, reason in KEPT.items()
           if not REASON.fullmatch(reason)
           or reason.startswith("frozen reader:")
           and not _cites_its_reader(name, reason)}
    assert not bad, bad


def test_kept_only_shrinks():
    assert len(KEPT) <= KEPT_CEILING, "the surface only shrinks"


# -- parameters --------------------------------------------------------------

def test_every_defaulted_parameter_is_varied_or_kept(census):
    missing = sorted(set(census["unvaried"]) - set(KEPT_PARAMS))
    assert not missing, (
        "defaulted parameters no root varies: make each a constant beside "
        "its reader (or delete it with the branch it selects), or keep it "
        "with a reason (tests/core/test_reachability.py KEPT_PARAMS):\n  "
        + "\n  ".join(missing))


def test_kept_params_name_a_parameter(census):
    known = set(census["unvaried"]) | set(census["varied"])
    assert not set(KEPT_PARAMS) - known, set(KEPT_PARAMS) - known


def test_kept_params_are_not_varied(census):
    stale = sorted(set(KEPT_PARAMS) & set(census["varied"]))
    assert not stale, f"kept parameters a root now varies: {stale}"


def _param_reason_holds(name: str, reason: str, default: str) -> bool:
    match = PARAM_REASON.fullmatch(reason)
    if match is None:
        return False
    kind = reason.partition(":")[0]
    if kind == "config":
        return match.group(2) in CONFIG_FIELDS
    if kind == "seam":
        return default not in VALUES
    if kind == "invariant":
        return default == SWITCH
    return kind != "frozen reader" or _cites_its_reader(name, reason)


def test_kept_param_reasons_are_from_the_closed_set(census):
    defaults = census["unvaried"]
    bad = {name: reason for name, reason in KEPT_PARAMS.items()
           if not _param_reason_holds(name, reason,
                                      defaults.get(name, "NoneType"))}
    assert not bad, bad


def test_kept_params_only_shrink():
    assert len(KEPT_PARAMS) <= KEPT_PARAMS_CEILING, "the surface only shrinks"
