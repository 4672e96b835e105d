"""Per-layer attribution from outside the program.

``LayerTracer`` replaces a table of public entry points (one row per
``repro.<package>`` function or method another package calls) with timing
wrappers, and proxies every generator handed to ``Simulator.process`` so
each resume is charged to the package that owns the generator's code.  The
program is not edited: attributes are swapped on install and put back on
uninstall.

One host thread, so calls nest properly: a span's *self time* is its
duration minus the durations of the spans opened inside it.  Per-entry
aggregates (calls, total, self) are kept for every call.  Full span trees
are kept for one job in ``sample_every`` and written as JSONL.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
import time
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns

#: layer -> entry points, each ``"module:attr"`` or ``"module:Class.attr"``.
#: A row is a function some *other* package (or the benchmark) calls.
#: Hot leaf helpers (``file_digest``, ``VirtualFileSystem.read_file`` /
#: ``isfile`` / ``isdir``: 150-500 calls per ``course_mix`` submission from
#: the build cache's input verification) are deliberately not rows: the
#: wrapper would cost more than the call.  Their time is charged to the
#: caller's layer.
ENTRY_POINTS: Dict[str, tuple] = {
    "core": (
        "repro.core.client:RaiClient.submit",
        "repro.core.client:RaiClient.stage_project",
        "repro.core.client:RaiClient.check_ranking",
        "repro.core.system:RaiSystem.new_client",
        "repro.core.system:RaiSystem.run_all",
    ),
    "sim": (
        "repro.sim.kernel:Simulator.run",
        "repro.sim.kernel:Simulator.process",
        "repro.sim.kernel:Simulator.all_of",
        "repro.sim.resources:Store.get",
        "repro.sim.monitor:Monitor.incr",
    ),
    "broker": (
        "repro.broker.broker:MessageBroker.publish",
        "repro.broker.broker:MessageBroker.channel",
        "repro.broker.topic:Channel.deliver",
        "repro.broker.topic:Channel.try_deliver",
        "repro.broker.topic:Channel.ack",
        "repro.broker.client:Consumer.__init__",
        "repro.broker.client:Consumer.get",
        "repro.broker.client:Consumer.try_get",
        "repro.broker.client:Consumer.ack",
        "repro.broker.client:Consumer.ack_release",
        "repro.broker.client:Consumer.close",
        "repro.broker.client:Producer.__init__",
        "repro.broker.client:Producer.publish",
        "repro.broker.client:Producer.close",
    ),
    "sched": (
        "repro.sched.scheduler:JobScheduler.select",
        "repro.sched.scheduler:JobScheduler.note_dispatch",
        "repro.sched.scheduler:JobScheduler.note_completion",
    ),
    "shard": (
        "repro.shard.plane:ShardedControlPlane.route",
        "repro.shard.plane:ShardedControlPlane.try_steal",
        "repro.shard.plane:ShardedControlPlane.consumer",
        "repro.shard.plane:ShardedControlPlane.note_completion",
        "repro.shard.steal:StealingConsumer.try_get",
        "repro.shard.steal:StealingConsumer.ack_release",
    ),
    "docdb": (
        "repro.docdb.database:DocumentDB.collection",
        "repro.docdb.database:Collection.insert_one",
        "repro.docdb.database:Collection.find",
        "repro.docdb.database:Collection.find_one",
        "repro.docdb.database:Collection.update_one",
        "repro.docdb.sharded:ShardedCollection.insert_one",
        "repro.docdb.sharded:ShardedCollection.find",
        "repro.docdb.sharded:ShardedCollection.find_one",
        "repro.docdb.cursor:Cursor.sort",
        "repro.docdb.cursor:Cursor.to_list",
    ),
    "storage": (
        "repro.storage.object_store:ObjectStore.put_object",
        "repro.storage.object_store:ObjectStore.get_object",
        "repro.storage.object_store:ObjectStore.presign_get",
        "repro.storage.object_store:ObjectStore.negotiate_base",
        "repro.storage.chunkstore:ChunkStore.store",
        "repro.storage.chunkstore:ChunkStore.assemble",
        "repro.storage.chunkstore:ChunkStore.missing_bytes",
        "repro.storage.chunkstore:Manifest.from_bytes",
        "repro.storage.chunkstore:Manifest.delta",
        "repro.storage.chunkstore:Manifest.delta_wire_size",
        "repro.storage.chunkstore:Manifest.tree_digest",
    ),
    "buildcache": (
        "repro.storage.buildcache:BuildCache.lookup",
        "repro.storage.buildcache:BuildCache.capture",
        "repro.storage.buildcache:BuildCache.apply",
        "repro.storage.buildcache:BuildCache.seen_source",
        "repro.storage.buildcache:image_cache_key",
    ),
    "vfs": (
        "repro.vfs.archive:pack_tree",
        "repro.vfs.archive:unpack_tree",
        "repro.vfs.filesystem:VirtualFileSystem.import_mapping",
        "repro.vfs.filesystem:VirtualFileSystem.write_file",
        "repro.vfs.filesystem:VirtualFileSystem.iter_files",
        "repro.vfs.filesystem:VirtualFileSystem.file_count",
        "repro.vfs.filesystem:VirtualFileSystem.start_tracking",
        "repro.vfs.filesystem:VirtualFileSystem.stop_tracking",
        "repro.vfs.filesystem:VirtualFileSystem.graft",
    ),
    "buildspec": (
        "repro.buildspec.parser:parse_build_spec",
        "repro.buildspec.spec:RaiBuildSpec.validate",
        "repro.buildspec.spec:command_cacheable",
    ),
    "container": (
        "repro.container.runtime:ContainerRuntime.create_container",
        "repro.container.runtime:ContainerRuntime.pull_cost_seconds",
        "repro.container.pool:WarmContainerPool.acquire",
        "repro.container.pool:WarmContainerPool.release",
        "repro.container.container:Container.start",
        "repro.container.container:Container.exec_line",
    ),
    "gpu": (
        "repro.gpu.cnn:infer",
        "repro.gpu.cnn:accuracy",
        "repro.gpu.hdf5sim:read_h5s",
        "repro.gpu.kernels:cnn_job_time",
        "repro.gpu.kernels:kernel_timeline",
    ),
    "auth": (
        "repro.auth.signing:sign_request",
        "repro.auth.signing:verify_request",
        "repro.auth.keys:KeyStore.issue",
        "repro.auth.keys:KeyStore.lookup",
        "repro.auth.keys:KeyStore.verify_pair",
    ),
    "obs": (
        "repro.obs.tracer:Tracer.start_span",
        "repro.obs.tracer:Tracer.end_subtree",
        "repro.obs.span:Span.end",
        "repro.obs.span:Span.add_event",
        "repro.obs.span:Span.headers",
        "repro.obs.events:EventLog.emit",
        "repro.obs.metrics:MetricsRegistry.histogram",
        "repro.obs.metrics:MetricsRegistry.counter",
        "repro.obs.metrics:Histogram.observe",
        "repro.obs.scrape:MetricsScraper.scrape_now",
        "repro.obs.alerts:AlertManager.check",
    ),
    "usage": (
        "repro.obs.usage:UsageMeter.record",
        "repro.obs.usage:UsageMeter.record_job",
        "repro.obs.usage:CostAllocator.refresh",
    ),
    "durability": (
        "repro.durability.manager:DurabilityManager.docdb_insert",
        "repro.durability.manager:DurabilityManager.broker_publish",
        "repro.durability.manager:DurabilityManager.broker_deliver",
        "repro.durability.manager:DurabilityManager.broker_ack",
        "repro.durability.manager:DurabilityManager.storage_put",
        "repro.durability.manager:DurabilityManager.checkpoint",
        "repro.durability.wal:WriteAheadLog.append",
    ),
}

#: Generators started with ``Simulator.process`` are charged to the package
#: that owns their code; ``repro.obs.usage`` is the ``usage`` layer.
_OWNER_RE = re.compile(r"[/\\]repro[/\\](\w+)[/\\](\w+)\.py$")


def layer_of_code(code) -> tuple:
    """``(layer, name)`` for a generator's code object."""
    match = _OWNER_RE.search(code.co_filename)
    if match is None:
        return "bench", code.co_name
    package, module = match.groups()
    return package, f"{module}.{code.co_name}"


def entry_name(target: str) -> str:
    return target.partition(":")[2]


def entry_names() -> set:
    """Every row of the table, as it appears in stats and reports."""
    return {entry_name(target) for targets in ENTRY_POINTS.values()
            for target in targets}


class Cell:
    """The spans of one job on one side (client or worker)."""

    __slots__ = ("job_id", "spans")

    def __init__(self, job_id: Optional[str] = None):
        self.job_id = job_id
        self.spans: Optional[list] = []


class LayerTracer:
    def __init__(self, sample_every: int = 50):
        self.sample_every = sample_every
        #: (layer, name) -> [calls, total_ns, self_ns]
        self.stats: Dict[tuple, list] = {}
        #: entry name -> callable(args, kwargs, result), run after the span
        self.observers: Dict[str, Callable] = {}
        self.active = False
        self.cells: List[Cell] = []
        self._stack: list = []          # open frames: [child_ns, span_id]
        self._cell: Optional[Cell] = None
        self._next_span = 0
        self._patches: list = []        # (owner, attr, original)
        self._started_ns = 0
        self.wall_ns = 0

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        for layer, targets in ENTRY_POINTS.items():
            for target in targets:
                name = entry_name(target)
                if name == "Simulator.process":
                    wrap = self._wrap_process
                elif name == "RaiClient.submit":
                    wrap = self._wrap_generator
                else:
                    wrap = self._wrap_call
                self.patch(target, lambda fn, w=wrap, la=layer, n=name:
                           w(fn, la, n))

    def patch(self, target: str, make: Callable) -> None:
        """Replace ``target`` by ``make(original)`` wherever ``repro`` holds
        it: on its class, or in its module and every module that did
        ``from x import f``."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(make(raw.__func__))
            else:
                replacement = make(raw)
            self._swap(owner, attr, raw, replacement)
            return
        raw = getattr(owner, attr)
        replacement = make(raw)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._swap(module, key, raw, replacement)

    def _swap(self, owner, attr: str, raw, replacement) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def start(self) -> None:
        self.active = True
        self._started_ns = _now()

    def stop(self) -> None:
        self.wall_ns = _now() - self._started_ns
        self.active = False

    # -- wrappers --------------------------------------------------------------

    def _stat(self, layer: str, name: str) -> list:
        return self.stats.setdefault((layer, name), [0, 0, 0])

    def _close(self, frame: list, stat: list, layer: str, name: str,
               t0: int, t1: int) -> None:
        """Book a finished span: aggregates, parent's child cover, and the
        span record when the current job is kept."""
        stack = self._stack
        stack.pop()
        duration = t1 - t0
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[0]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[0] += duration
        cell = self._cell
        if cell is not None and cell.spans is not None:
            cell.spans.append((frame[1], parent[1] if parent else None,
                               layer, name, t0, t1, duration - frame[0]))

    def _open(self) -> list:
        self._next_span += 1
        frame = [0, self._next_span]
        self._stack.append(frame)
        return frame

    def _wrap_call(self, fn, layer: str, name: str):
        stat = self._stat(layer, name)
        observe = self.observers.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open()
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, stat, layer, name, t0, _now())
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_process(self, fn, layer: str, name: str):
        """``Simulator.process``: the call is a ``sim`` span; the generator
        it is given is proxied so its resumes are charged to its owner."""
        call = self._wrap_call(fn, layer, name)
        tracer = self

        def process(sim, generator):
            if generator.gi_code is not _resume.__code__:
                owner, label = layer_of_code(generator.gi_code)
                generator = tracer._proxy(generator, owner, label, [None])
            return call(sim, generator)

        process.__wrapped__ = fn
        return process

    def _wrap_generator(self, fn, layer: str, name: str):
        """A generator function driven with ``yield from`` (the client's
        ``submit``): every resume is a span; the job id is learnt from the
        ``JobResult`` it returns."""
        tracer = self

        def started(*args, **kwargs):
            generator = fn(*args, **kwargs)
            cell = Cell()
            tracer.cells.append(cell)
            return tracer._proxy(
                generator, layer, name, [cell],
                on_return=lambda result: tracer._bind(
                    cell, getattr(result, "job_id", None)))

        started.__wrapped__ = fn
        return started

    def _bind(self, cell: Cell, job_id: Optional[str]) -> None:
        """The cell's job is now known: keep or drop its span tree."""
        cell.job_id = job_id
        digits = re.sub(r"\D", "", job_id or "")
        if not digits or int(digits) % self.sample_every:
            cell.spans = None

    def worker_job(self, holder: list, job_id: str) -> None:
        """A worker's executor loop has started on ``job_id``."""
        cell = Cell()
        self._bind(cell, job_id)
        if cell.spans is not None:
            self.cells.append(cell)
        holder[0] = cell
        self._cell = cell

    def _proxy(self, generator, layer: str, name: str, holder: list,
               on_return: Optional[Callable] = None):
        proxy = _resume(self, generator, self._stat(layer, name), layer, name,
                        holder, on_return)
        proxy.__name__ = getattr(generator, "__name__", name)
        return proxy

    def current_holder(self) -> Optional[list]:
        """The job holder of the innermost process resume on the stack."""
        for frame in reversed(self._stack):
            if len(frame) > 2:
                return frame[2]
        return None

    # -- results ---------------------------------------------------------------

    def layer_self_ns(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for (layer, _), (_, _, self_ns) in self.stats.items():
            totals[layer] = totals.get(layer, 0) + self_ns
        return totals

    def calls(self, name: str) -> int:
        return sum(stat[0] for (_, entry), stat in self.stats.items()
                   if entry == name)

    def entries_called(self) -> set:
        table = entry_names()
        return {name for (_, name), stat in self.stats.items()
                if stat[0] and name in table}

    def write_jsonl(self, path: str) -> int:
        """One line per span of every kept job; returns the job count."""
        jobs = set()
        with open(path, "w") as out:
            for cell in self.cells:
                if not cell.spans or cell.job_id is None:
                    continue
                jobs.add(cell.job_id)
                for sid, parent, layer, name, t0, t1, self_ns in cell.spans:
                    out.write(json.dumps({
                        "job": cell.job_id, "span": sid, "parent": parent,
                        "layer": layer, "name": name,
                        "start_us": (t0 - self._started_ns) / 1e3,
                        "end_us": (t1 - self._started_ns) / 1e3,
                        "self_us": self_ns / 1e3}) + "\n")
        return len(jobs)


def _resume(tracer: LayerTracer, generator, stat: list, layer: str,
            name: str, holder: list, on_return: Optional[Callable]):
    """Stand in for ``generator``: each resume is a span of ``layer``, and
    while it runs the spans it opens belong to ``holder``'s job."""
    value = exc = None
    while True:
        if not tracer.active:
            target = (generator.send(value) if exc is None
                      else generator.throw(exc))
        else:
            frame = tracer._open()
            frame.append(holder)
            outer = tracer._cell
            tracer._cell = holder[0]
            t0 = _now()
            try:
                target = (generator.send(value) if exc is None
                          else generator.throw(exc))
            except StopIteration as stop:
                if on_return is not None:
                    on_return(stop.value)
                return stop.value
            finally:
                tracer._close(frame, stat, layer, name, t0, _now())
                tracer._cell = outer
        try:
            value, exc = (yield target), None
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as thrown:
            value, exc = None, thrown


def busy_wait(micros: float) -> Callable:
    """``make`` for :meth:`LayerTracer.patch`: spin ``micros`` before each
    call (``--sensitivity`` injects a known cost into one entry point)."""
    nanos = int(micros * 1000)

    def make(fn):
        def delayed(*args, **kwargs):
            until = _now() + nanos
            while _now() < until:
                pass
            return fn(*args, **kwargs)

        delayed.__wrapped__ = fn
        return delayed

    return make

