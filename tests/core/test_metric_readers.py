"""Every number has a reader: a series ``src/repro`` writes is read by
non-test code.

A *write* is the name argument of one of these calls under ``src/repro``:
``<view>.incr(name)`` on a :class:`~repro.obs.metrics.CounterGroup` view
or the monitor (the view's prefix resolved from the class that builds it),
``metrics.counter(name)``, ``metrics.gauge(name, fn=...)`` or
``metrics.gauge(name).set(...)``, and ``metrics.histogram(name).observe``.
A *read* is the same series named, in non-test code under ``src``,
``bench``, ``benchmarks`` or ``examples``, in the shape of a read:
``<view>.get(name)``, ``metrics.value(name)`` / ``metrics.get(name)``,
the scraper's ``gauge_samples(name, ...)``, ``counter_delta(name, ...)``
or ``histogram_delta(name, ...)`` (the SLO judge's reads), or
``metrics.histogram(name)`` / ``metrics.gauge(name)`` with no write
after it.  A dict key spelled like
a series is not a read.  A name built at run time fails unless
:data:`DYNAMIC_KEPT` keeps its site with a reason from the closed set
``tests/core/test_reachability.py`` uses.
"""

import ast
import functools
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

from tests.core.test_reachability import REASON

ROOT = Path(__file__).resolve().parents[2]
WRITER_DIRS = ("src/repro",)
READER_DIRS = ("src", "bench", "benchmarks", "examples")

#: Every series written, and who reads it.  A new series needs a reader
#: and a row here; a series whose last reader goes is deleted with it.
SERIES = {
    "bytes_uploaded": "CourseResult.totals (uploaded_bytes)",
    "dead_letters_drained": "the submission-success SLO, the health report",
    "duplicate_records_suppressed": "the health report",
    "faults_injected": "the health report",
    "jobs_deadline_exceeded": "the health report",
    "storage_retries": "the health report, bench storage.retries",
    "broker_messages_published": "bench broker.msgs_per_sub, Figure 1",
    "broker_bytes_published": "MessageBroker.total_bytes_published",
    "jobs_finished": "the submission-success SLO",
    "sched_queue_wait_seconds": "the queue-wait SLO and its exemplars, "
                                "rai top, bench sched.wait_p50_sim_s",
    "queue_depth": "the health report",
    "workers_running": "the health report",
    "jobs_active": "the health report",
    "in_flight": "rai top, bench broker.in_flight_leaked",
}

#: Write sites (``path:qualname``) whose series name is built at run
#: time, and why each stays.  None today.
DYNAMIC_KEPT: Dict[str, str] = {}

INSTRUMENTS = ("counter", "gauge", "histogram")
#: The scraper's window queries: each names the series it reads.
SCRAPER_READS = ("gauge_samples", "counter_delta", "histogram_delta")


def _sources(dirs: Iterable[str]) -> Dict[str, str]:
    """Non-test ``.py`` files under ``dirs``, by path relative to ROOT."""
    out = {}
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT)
            if "tests" not in rel.parts:
                out[str(rel)] = path.read_text()
    return out


class _Module:
    """One parsed file: its assignments and calls, every node annotated
    with its parent, enclosing class name, enclosing function and
    qualified name, and every function with its local assignments."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.assigns: List[ast.Assign] = []
        self.calls: List[ast.Call] = []
        stack = [(ast.parse(text, filename=path), None, None, None, ())]
        while stack:
            node, parent, klass, func, qual = stack.pop()
            node._parent, node._class, node._func = parent, klass, func
            node._qual = ".".join(qual) or "<module>"
            if isinstance(node, ast.Call):
                self.calls.append(node)
            elif isinstance(node, ast.Assign):
                self.assigns.append(node)
                for target in node.targets:
                    if func is not None and isinstance(target, ast.Name):
                        func._locals.setdefault(target.id, []).append(
                            node.value)
            elif isinstance(node, ast.ClassDef):
                klass, qual = node.name, qual + (node.name,)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                node._locals = {}
                func, qual = node, qual + (node.name,)
            stack.extend((child, node, klass, func, qual)
                         for child in ast.iter_child_nodes(node))


def _str(node) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _terminal(node) -> Optional[str]:
    """The last name of ``a.b.c`` (``c``) or of a bare ``c``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class Census:
    """Series written under ``src/repro`` and series read anywhere."""

    def __init__(self, writers: Dict[str, str], readers: Dict[str, str]):
        modules = {path: _Module(path, text)
                   for path, text in {**readers, **writers}.items()}
        #: class -> prefix of the CounterGroup it keeps as ``self.counters``
        self.prefix: Dict[str, str] = {}
        for node in (a for m in modules.values() for a in m.assigns):
            if (node._class and isinstance(node.value, ast.Call)
                    and _terminal(node.value.func) == "CounterGroup"
                    and any(_terminal(t) == "counters"
                            for t in node.targets)):
                self.prefix[node._class] = next(
                    (_str(k.value) for k in node.value.keywords
                     if k.arg == "prefix"), "")
        #: attribute name -> the counting class assigned to it
        owners: Dict[str, Set[str]] = {}
        for node in (a for m in modules.values() for a in m.assigns):
            if (isinstance(node.value, ast.Call)
                    and _terminal(node.value.func) in self.prefix):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        owners.setdefault(target.attr, set()).add(
                            _terminal(node.value.func))
        self.attr_class = {attr: next(iter(classes))
                           for attr, classes in owners.items()
                           if len(classes) == 1}
        self.writes: Dict[str, List[str]] = {}
        self.dynamic: List[str] = []
        self.unresolved: List[str] = []
        self.reads: Set[str] = set()
        for path in writers:
            self._collect_writes(modules[path])
        for path in readers:
            self._collect_reads(modules[path])

    # -- resolution ---------------------------------------------------------

    def _assigned(self, name: ast.Name) -> Optional[ast.AST]:
        """The value a function-local ``name = value`` gave ``name``."""
        if name._func is None:
            return None
        values = name._func._locals.get(name.id, ())
        return values[0] if len(values) == 1 else None

    def _owner(self, node) -> Optional[str]:
        """The counting class ``node`` evaluates to, if known."""
        if isinstance(node, ast.Name):
            if node.id == "self":
                return node._class
            value = self._assigned(node)
            return self._owner(value) if value is not None else None
        if isinstance(node, ast.Attribute):
            return self.attr_class.get(node.attr)
        return None

    def _view_prefix(self, node) -> Optional[str]:
        """The prefix of the counter view ``node`` is (``x.counters``, an
        alias of one, or a monitor, whose ``incr`` forwards to its own)."""
        if isinstance(node, ast.Name) and node.id != "self":
            value = self._assigned(node)
            return self._view_prefix(value) if value is not None else None
        if isinstance(node, ast.Attribute) and node.attr == "counters":
            node = node.value
        return self.prefix.get(self._owner(node))

    # -- writes ---------------------------------------------------------------

    def _site(self, path: str, node) -> str:
        return f"{path}:{node.lineno} ({node._qual})"

    def _write(self, path: str, call: ast.Call, name_node, prefix: str):
        name = _str(name_node)
        if name is None:
            key = f"{path}:{call._qual}"
            if key not in DYNAMIC_KEPT:
                self.dynamic.append(self._site(path, call))
            return
        self.writes.setdefault(prefix + name, []).append(
            self._site(path, call))

    def _collect_writes(self, module: _Module) -> None:
        path = module.path
        for call in module.calls:
            if not (call.args and isinstance(call.func, ast.Attribute)):
                continue
            method, first = call.func.attr, call.args[0]
            if method == "incr":
                params = ({a.arg for a in call._func.args.args}
                          if call._func is not None else set())
                if isinstance(first, ast.Name) and first.id in params:
                    continue        # a view forwarding its caller's name
                prefix = self._view_prefix(call.func.value)
                if prefix is None:
                    self.unresolved.append(self._site(path, call))
                    continue
                self._write(path, call, first, prefix)
            elif (method in INSTRUMENTS
                  and _terminal(call.func.value) == "metrics"
                  and self._is_write(call)):
                self._write(path, call, first, "")

    @staticmethod
    def _is_write(call: ast.Call) -> bool:
        after = call._parent
        follow = after.attr if isinstance(after, ast.Attribute) else None
        method = call.func.attr
        if method == "counter":
            return True
        if method == "gauge":
            return follow == "set" or any(k.arg == "fn"
                                          for k in call.keywords)
        return follow == "observe"

    # -- reads ----------------------------------------------------------------

    def _names(self, node) -> List[str]:
        """String constants ``node`` stands for: itself, or each element
        of the literal tuple/list a ``for`` loop binds it to."""
        text = _str(node)
        if text is not None:
            return [text]
        if not isinstance(node, ast.Name):
            return []
        scope = node._parent
        while scope is not None:
            if (isinstance(scope, ast.For)
                    and isinstance(scope.target, ast.Name)
                    and scope.target.id == node.id
                    and isinstance(scope.iter, (ast.Tuple, ast.List))):
                return [t for t in map(_str, scope.iter.elts) if t]
            scope = getattr(scope, "_parent", None)
        return []

    def _collect_reads(self, module: _Module) -> None:
        for call in module.calls:
            if not (call.args and isinstance(call.func, ast.Attribute)):
                continue
            method, receiver = call.func.attr, call.func.value
            names = self._names(call.args[0])
            if method in SCRAPER_READS:
                self.reads.update(names)
            elif method in ("value", "get") and \
                    _terminal(receiver) in ("metrics", "registry"):
                self.reads.update(names)
            elif method in ("gauge", "histogram") and \
                    _terminal(receiver) == "metrics" and \
                    not self._is_write(call):
                self.reads.update(names)
            elif method == "get":
                prefix = self._view_prefix(receiver)
                if prefix is not None:
                    self.reads.update(prefix + n for n in names)

    def write_only(self) -> Dict[str, List[str]]:
        return {name: sites for name, sites in sorted(self.writes.items())
                if name not in self.reads}


@functools.lru_cache(maxsize=None)
def census() -> Census:
    return Census(_sources(WRITER_DIRS), _sources(READER_DIRS))


def _failures(c: Census) -> List[str]:
    out = [f"write-only series {name!r} written at {site}"
           for name, sites in c.write_only().items() for site in sites]
    out += [f"series name built at run time at {site}" for site in c.dynamic]
    out += [f"counter view of unknown prefix at {site}"
            for site in c.unresolved]
    return out


def test_every_series_written_has_a_reader():
    failures = _failures(census())
    assert not failures, (
        "delete each write, or give the series a reader outside the "
        "tests:\n  " + "\n  ".join(failures))


def test_the_series_written_are_the_listed_ones():
    assert set(census().writes) == set(SERIES)


def test_dynamic_kept_reasons_are_from_the_closed_set():
    bad = {site: why for site, why in DYNAMIC_KEPT.items()
           if not REASON.fullmatch(why)}
    assert not bad, bad


# -- the guard's own check ------------------------------------------------------

MONITOR = '''
class CounterGroup:
    pass

class Monitor:
    def __init__(self, metrics):
        self.counters = CounterGroup(metrics)

    def incr(self, name, amount=1):
        self.counters.incr(name, amount)

class Broker:
    def __init__(self, metrics):
        self.counters = CounterGroup(metrics, prefix="broker_")

class System:
    def __init__(self, metrics):
        self.metrics = metrics
        self.monitor = Monitor(metrics)
        self.broker = Broker(metrics)
'''


SLO_WRITER = '''
    def record(self, wait, status):
        self.metrics.histogram("sched_queue_wait_seconds").observe(wait)
        self.metrics.counter("jobs_finished", status=status).inc()
'''


def _probe(writer: str, reader: str) -> Census:
    return Census({"src/repro/probe.py": MONITOR + writer},
                  {"src/repro/report.py": reader})


def test_guard_fails_on_a_write_only_counter():
    c = _probe('''
    def submit(self):
        self.monitor.incr("orphan_total")
        self.monitor.incr("read_total")
''', '''
def report(system):
    return system.monitor.counters.get("read_total")
''')
    assert list(c.write_only()) == ["orphan_total"]
    (message,) = _failures(c)
    assert re.search(r"'orphan_total' written at src/repro/probe\.py:\d+ "
                     r"\(System\.submit\)", message)


def test_guard_fails_on_a_dict_key_spelled_like_a_gauge():
    c = _probe('''
    def wire(self):
        self.metrics.gauge("dead_letters", fn=self.dead_letter_count)
''', '''
def stats(system):
    counts = {"dead_letters": system.dead_letter_count()}
    return counts["dead_letters"]
''')
    assert list(c.write_only()) == ["dead_letters"]


def test_guard_resolves_prefixes_aliases_and_loops():
    c = _probe('''
    def wire(self):
        self.metrics.gauge("depth", fn=len)
        self.monitor.incr("retries")
        self.broker.counters.incr("published")
''', '''
def report(system):
    counters = system.broker.counters
    total = counters.get("published") + system.monitor.counters.get(
        "retries")
    for signal in ("depth",):
        system.scraper.gauge_samples(signal, 0.0, 1.0)
    return total
''')
    assert c.writes.keys() == {"broker_published", "depth", "retries"}
    assert not _failures(c)


def test_guard_counts_the_slo_judges_reads():
    c = _probe(SLO_WRITER, '''
def judge(scraper, now):
    wait = scraper.histogram_delta("sched_queue_wait_seconds", now, 300.0)
    good = scraper.counter_delta("jobs_finished", now, 300.0,
                                 label="status=succeeded")
    return wait, good
''')
    assert not _failures(c)


def test_guard_fails_on_an_objective_naming_a_misspelt_series():
    c = _probe(SLO_WRITER, '''
def judge(scraper, now):
    wait = scraper.histogram_delta("sched_queue_wiat_seconds", now, 300.0)
    good = scraper.counter_delta("jobs_finished", now, 300.0,
                                 label="status=succeeded")
    return wait, good
''')
    assert list(c.write_only()) == ["sched_queue_wait_seconds"]
    (message,) = _failures(c)
    assert message.startswith("write-only series 'sched_queue_wait_seconds' "
                              "written at src/repro/probe.py:")


def test_guard_fails_on_a_name_built_at_run_time():
    c = _probe('''
    def fault(self, kind):
        self.monitor.incr(f"faults_{kind}")
''', "")
    (message,) = _failures(c)
    assert message.startswith("series name built at run time at "
                              "src/repro/probe.py:")
