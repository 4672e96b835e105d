"""The reachability guard's roots, and the census they take.

A *root* is something the system is for: a benchmark workload, an example,
the paper set's probes, a ``rai`` verb, the instructor's audit.  Running
the roots under ``sys.setprofile`` (stdlib only) records every
``src/repro`` code object they call, and whether any call passes a
defaulted parameter a value other than its default; :func:`public_defs`
lists, with ``ast``, every public def (a module function, class or method
whose qualified name has no ``_``-prefixed part).
``tests/core/test_reachability.py`` fails on a public def that is neither
reached nor kept with a reason, and on a defaulted parameter of a reached
def (``__init__`` included) that is neither varied nor kept.

    python tests/reachability_roots.py            # the census, as JSON
    python tests/reachability_roots.py --report   # full census, by module

``--report`` adds the slow roots (the paper set at
``REPRO_COURSE_SCALE=small`` and ``examples/mini_course_replay.py``) and
prints what is still unreached, by module with line counts, the defaulted
parameters no root varies, by module, and what the fast roots miss that
the full census reaches.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import enum
import functools
import importlib
import inspect
import io
import json
import os
import runpy
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

SEED = 408
SMOKE_SCALE = 0.05              # bench/run.py --smoke
TRACED_WORKLOAD = "course_mix"
FAST_EXAMPLES = ("quickstart", "competition_finals", "elastic_deadline",
                 "instructor_tools", "interactive_session")
SLOW_EXAMPLES = ("mini_course_replay",)


# -- the public surface -------------------------------------------------------

@dataclass(frozen=True)
class Def:
    """One public def: ``first`` is its first decorator's line (what its
    code object reports), ``last`` its last line."""

    name: str           # "repro.pkg.module:Class.method"
    path: str           # relative to the repository root
    first: int
    last: int
    is_class: bool
    stub: bool = False

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _accessor(node: ast.FunctionDef) -> str:
    """``.setter`` / ``.deleter`` for a property's second and third defs."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Attribute) \
                and decorator.attr in ("setter", "deleter"):
            return "." + decorator.attr
    return ""


def _stub(node: ast.FunctionDef) -> bool:
    """A body of only a docstring, ``pass``, ``...`` or
    ``raise NotImplementedError``."""
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value,
                                                    ast.Constant):
        body = body[1:]
    if len(body) > 1:
        return False
    if not body or isinstance(body[0], ast.Pass):
        return True
    statement = body[0]
    if isinstance(statement, ast.Expr):
        return statement.value.value is Ellipsis \
            if isinstance(statement.value, ast.Constant) else False
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        exc = statement.exc
        exc = exc.func if isinstance(exc, ast.Call) else exc
        return getattr(exc, "id", None) == "NotImplementedError"
    return False


def _walk(body, prefix: str, module: str, path: str, found: Dict[str, Def],
          inits: Dict[Tuple[str, int], str]):
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            _walk(node.body, prefix, module, path, found, inits)
            continue
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if node.name == "__init__" and prefix:
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            inits[(path, first)] = f"{module}:{prefix}__init__"
        if node.name.startswith("_"):
            continue
        first = min([node.lineno]
                    + [d.lineno for d in node.decorator_list])
        qualname = prefix + node.name
        is_class = isinstance(node, ast.ClassDef)
        suffix = "" if is_class else _accessor(node)
        name = f"{module}:{qualname}{suffix}"
        found[name] = Def(name, path, first, node.end_lineno, is_class,
                          stub=bool(prefix) and not is_class and _stub(node))
        if is_class:
            _walk(node.body, qualname + ".", module, path, found, inits)


def public_defs() -> Dict[str, Def]:
    """Every public def under ``src/repro``, by qualified name."""
    return _surface()[0]


@functools.lru_cache(maxsize=None)
def _surface() -> Tuple[Dict[str, Def], Dict[Tuple[str, int], str]]:
    """The public defs, and the ``(path, first line)`` of each public
    class's hand-written ``__init__`` mapped to its qualified name."""
    found: Dict[str, Def] = {}
    inits: Dict[Tuple[str, int], str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        if any(part.startswith("_") for part in module.split(".")):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        _walk(tree.body, "", module, str(path.relative_to(ROOT)), found,
              inits)
    return found, inits


# -- the census ---------------------------------------------------------------

#: Constructors that take the class first: ``__new__`` and a namedtuple's
#: generated ``lambda _cls, ...``.
_NEW = {"__new__": ("cls",), "<lambda>": ("_cls",)}


class Census:
    """Every code object called, every class instantiated, and every
    defaulted parameter passed a value other than its default, while open.

    A function or method counts as reached when its code runs.  A class
    counts as reached when a method of its own runs, when an instance is
    made (an ``__init__`` runs with it as ``type(self)``, or a ``__new__``
    or a namedtuple's constructor runs for it), when a subclass is
    reached, or, for an error class or a class with no methods (an enum,
    a table of constants), when a function that ran loads its name (a
    ``raise`` or ``except``, a member read).  An abstract stub (a body of
    only a docstring, ``pass``, ``...`` or ``raise NotImplementedError``)
    counts as reached when an override of it on a subclass does.

    A defaulted parameter of a ``src/repro`` function counts as *varied*
    once a call binds it to a value that is not its default (not the same
    object, and not equal to it with the same type); a generator's
    parameters are read on its first entry only.
    """

    def __init__(self):
        self.codes: Dict[int, tuple] = {}      # id -> (code, its globals)
        self.made: Set[type] = set()
        # id -> [(parameter, default)] no call has varied yet
        self.unvaried: Dict[int, List[Tuple[str, object]]] = {}
        # id -> (every defaulted parameter, the generator's entry offset)
        self.defaulted: Dict[int, Tuple[Tuple[Tuple[str, object], ...],
                                        int]] = {}

    @contextlib.contextmanager
    def recording(self):
        codes, made = self.codes, self.made
        unvaried, defaulted = self.unvaried, self.defaulted
        # Package code whose function is not (yet) where its name says: a
        # wrapper stands in for it while the benchmark's tracer is on.
        unresolved = set()
        package = str(PACKAGE) + os.sep

        def profile(frame, event, arg):
            if event == "call":
                code = frame.f_code
                key = id(code)
                if key not in codes:
                    codes[key] = (code, frame.f_globals)
                    if code.co_filename.startswith(package):
                        unresolved.add(key)
                if key in unresolved:
                    params = _defaulted(code, frame.f_globals)
                    if params is not None:
                        unresolved.discard(key)
                        if params:
                            defaulted[key] = (params, _entry(code))
                            unvaried[key] = list(params)
                todo = unvaried.get(key)
                if todo and frame.f_lasti <= defaulted[key][1]:
                    bound = frame.f_locals
                    todo[:] = [(name, default) for name, default in todo
                               if not _varies(bound.get(name, default),
                                              default)]
                name = code.co_name
                if name == "__init__" and code.co_argcount:
                    made.add(type(frame.f_locals[code.co_varnames[0]]))
                elif name in _NEW and code.co_varnames[:1] == _NEW[name]:
                    made.add(frame.f_locals[code.co_varnames[0]])

        sys.setprofile(profile)
        try:
            yield self
        finally:
            sys.setprofile(None)

    def reached(self, defs: Dict[str, Def]) -> Set[str]:
        """The names in ``defs`` this census reached."""
        package = str(PACKAGE) + os.sep
        lines: Dict[str, Set[int]] = {}
        classes = set(self.made)
        for code, namespace in self.codes.values():
            if not code.co_flags & inspect.CO_NEWLOCALS:
                continue            # a module or class body: import time
            if code.co_filename.startswith(package):
                path = str(Path(code.co_filename).relative_to(ROOT))
                lines.setdefault(path, set()).add(code.co_firstlineno)
            classes.update(value for value in map(namespace.get,
                                                  code.co_names)
                           if _named_is_used(value))
        for d in defs.values():
            if d.is_class and any(d.first < line <= d.last
                                  for line in lines.get(d.path, ())):
                classes.add(_resolve(d.name))
        named = {_name_of(k) for cls in classes for k in cls.__mro__}
        reached = {d.name for d in defs.values()
                   if (d.name in named if d.is_class
                       else d.first in lines.get(d.path, ()))}
        reached.update(d.name for d in defs.values()
                       if d.stub and _overridden(d.name, reached))
        return reached

    def parameters(self) -> Tuple[Dict[str, str], Set[str]]:
        """The defaulted parameters of the public defs (and public classes'
        ``__init__``) that ran, as ``"module:Qual.name(parameter)"``: those
        no call varied, each with its default's type name, and the rest."""
        defs, inits = _surface()
        where = dict(inits)
        where.update(((d.path, d.first), d.name) for d in defs.values()
                     if not d.is_class)
        unvaried: Dict[str, str] = {}
        varied: Set[str] = set()
        for key, (params, _) in self.defaulted.items():
            code = self.codes[key][0]
            path = str(Path(code.co_filename).relative_to(ROOT))
            owner = where.get((path, code.co_firstlineno))
            if owner is None:
                continue
            left = {name for name, _ in self.unvaried[key]}
            for name, default in params:
                param = f"{owner}({name})"
                if name in left:
                    unvaried[param] = type(default).__name__
                else:
                    varied.add(param)
        return unvaried, varied


def _defaulted(code, namespace) -> Optional[Tuple[Tuple[str, object], ...]]:
    """``code``'s defaulted parameters with their defaults, found through
    its function (a module function or a class's method, by qualified
    name); nothing for a nested function or a lambda, None while the name
    leads elsewhere."""
    if "<" in code.co_qualname:
        return ()
    target = namespace.get(code.co_qualname.partition(".")[0])
    for part in code.co_qualname.split(".")[1:]:
        target = vars(target).get(part) if isinstance(target, type) else None
    target = getattr(target, "__func__", target)
    with contextlib.suppress(ValueError):
        target = inspect.unwrap(target) if callable(target) else None
    if getattr(target, "__code__", None) is not code:
        return None
    positional = code.co_varnames[:code.co_argcount]
    defaults = target.__defaults__ or ()
    return (tuple(zip(positional[len(positional) - len(defaults):],
                      defaults))
            + tuple((target.__kwdefaults__ or {}).items()))


def _entry(code) -> int:
    """The offset a frame of ``code`` starts its body at: a generator's
    later resumptions are past it, and its parameters may have changed."""
    return next(i.offset for i in dis.get_instructions(code)
                if i.opname == "RESUME")


def _varies(value, default) -> bool:
    if value is default:
        return False
    if type(value) is not type(default):
        return True
    try:
        return bool(value != default)
    except Exception:           # an array's elementwise comparison
        return True


def _named_is_used(value) -> bool:
    """Whether loading ``value`` by name uses it: an error class (raised or
    caught) or a class with no methods (an enum, a table of constants).
    Any other class is used when it is instantiated or its code runs."""
    if not isinstance(value, type):
        return False
    return issubclass(value, (BaseException, enum.Enum)) or not any(
        inspect.isfunction(attr) for attr in vars(value).values())


def _name_of(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve(name: str):
    module, _, qualname = name.partition(":")
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def _overridden(stub: str, reached: Set[str]) -> bool:
    """Whether a subclass's override of the method ``stub`` was reached."""
    owner_name, _, method = stub.rpartition(".")
    owner = _resolve(owner_name)
    for name in reached:
        other, _, other_method = name.rpartition(".")
        if other_method == method and ":" in other and other != owner_name:
            cls = _resolve(other)
            if isinstance(cls, type) and issubclass(cls, owner):
                return True
    return False


# -- roots --------------------------------------------------------------------

@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        yield


def bench_workloads() -> None:
    """Each benchmark workload once at smoke scale, plus one traced run."""
    from bench import harness
    from bench.workloads import WORKLOADS

    try:
        for workload in WORKLOADS.values():
            harness.run_repeat(workload, SEED, SMOKE_SCALE, "reach")
        harness.run_traced(WORKLOADS[TRACED_WORKLOAD], SEED, SMOKE_SCALE)
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(harness.WORK_DIR)


def examples(names: Iterable[str]) -> Callable[[], None]:
    def run() -> None:
        for name in names:
            runpy.run_path(str(ROOT / "examples" / f"{name}.py"),
                           run_name="__main__")
    return run


def paper_probes() -> None:
    """A tiny course replay through the paper set's analysis helpers,
    Table I's behavioural probes, the Torque baseline of the elasticity
    bench and the docdb microbenchmarks (each timed call made once)."""
    from benchmarks.bench_elasticity import burst_arrivals, run_torque
    from benchmarks.bench_micro_substrates import TestDocDb
    from benchmarks.bench_table1_features import build_systems
    from repro.analysis import (ascii_histogram, ascii_timeline,
                                format_bytes, hourly_counts, peak_hour,
                                runtime_histogram)
    from repro.baselines import feature_matrix
    from repro.baselines.features import render_matrix
    from repro.workload.behavior import DAY
    from repro.workload.course import CourseConfig, CourseSimulation

    print(render_matrix(feature_matrix(build_systems())))
    print(run_torque(burst_arrivals()[:20]))
    docdb = TestDocDb()
    for bench in (docdb.test_filtered_find, docdb.test_indexed_equality_lookup,
                  docdb.test_ranking_aggregation):
        bench(lambda fn: fn())
    config = CourseConfig(n_students=6, n_teams=2, duration_days=3.0,
                          seed=SEED, final_week_instances=2)
    result = CourseSimulation(config).run()
    times = result.submission_times
    runtimes = result.top_runtimes(5)
    print(result.totals(), len(result.last_two_weeks()),
          len(result.submissions_in_window(0.0, 1.0)),
          format_bytes(result.totals()["uploaded_bytes"]))
    print(ascii_histogram(runtimes), runtime_histogram(runtimes))
    end = config.duration_days * DAY
    print(ascii_timeline(times, 0.0, end), hourly_counts(times, 0.0, end),
          peak_hour(times, 0.0, end))


def _project(quality: float) -> dict:
    """A student's project whose kernel runs at ``quality``."""
    marker = f"// @rai-sim quality={quality:.2f} impl=analytic\n"
    return {"main.cu": marker,
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n"}


def cli_tour() -> None:
    """Every ``RaiCLI.SUBCOMMANDS`` verb once.  A student runs and submits;
    a deadline burst of 40 teams then queues on the one worker (so the
    queue-wait objective burns and alerts); the operator's verbs follow,
    and ``rai cost`` comes an hour later, once a billing window closed."""
    from repro.core.cli import RaiCLI
    from repro.core.system import RaiSystem
    from repro.obs.scrape import INTERVAL_SECONDS

    system = RaiSystem.standard(num_workers=1, seed=SEED)
    system.start_observability()
    client = system.new_client(team="tour")
    client.stage_project(_project(0.8))
    cli = RaiCLI(system, client)

    def burst() -> None:
        system.run(until=system.sim.now + 2 * INTERVAL_SECONDS)
        teams = [system.new_client(team=f"burst-{i}") for i in range(40)]
        for i, team in enumerate(teams):
            team.stage_project(_project(0.1 + i / 50))
        system.run_all(team.submit() for team in teams)

    def an_hour() -> None:
        cli.system.run(until=cli.system.sim.now + 3600.0)

    with tempfile.TemporaryDirectory() as directory:
        state = os.path.join(directory, "state")
        args = {"checkpoint": state, "restore": state}
        before = {"ranking": burst, "cost": an_hour}
        for verb in RaiCLI.SUBCOMMANDS:
            before.get(verb, lambda: None)()
            print(cli.run_command(f"rai {verb} {args.get(verb, '')}"))
        job_id = client.history[-1].job_id
        for line in ("events tail 3", "events job.", f"events {job_id}",
                     f"trace {job_id}"):
            print(cli.run_command("rai " + line))


def coursework_audit() -> None:
    """§IV's coursework audit of a sharded deployment's job records: four
    teams run twice each on a four-partition system, then the
    instructor's reports."""
    from repro.core.config import SystemConfig
    from repro.core.system import RaiSystem
    from repro.grading.audit import CourseworkAuditor

    system = RaiSystem.standard(num_workers=2, seed=SEED,
                                config=SystemConfig(shards=4))
    teams = [system.new_client(team=f"audit-{i}") for i in range(4)]
    for quality in (0.3, 0.8):
        for team in teams:
            team.stage_project(_project(quality))
        system.run_all(team.submit() for team in teams)
    auditor = CourseworkAuditor(system.db)
    print(auditor.render_summary(), auditor.exit_code_breakdown(),
          auditor.most_improved())


FAST_ROOTS: Tuple[Callable[[], None], ...] = (
    bench_workloads, examples(FAST_EXAMPLES), paper_probes, cli_tour,
    coursework_audit)


def paper_set() -> None:
    """``benchmarks/`` (every paper table and figure) at small scale.  Some
    shape asserts are pinned to the full-size course and fail here; the
    code they drive has run all the same."""
    import pytest

    os.environ["REPRO_COURSE_SCALE"] = "small"
    pytest.main([str(ROOT / "benchmarks"), "-q", "-p", "no:cacheprovider",
                 "--benchmark-disable"])


SLOW_ROOTS: Tuple[Callable[[], None], ...] = (
    paper_set, examples(SLOW_EXAMPLES))


def census(roots: Iterable[Callable[[], None]],
           into: Optional[Census] = None) -> Census:
    into = into or Census()
    for root in roots:
        with _quiet(), into.recording():
            root()
    return into


# -- the report ---------------------------------------------------------------

def report() -> None:
    defs = public_defs()
    running = census(FAST_ROOTS)
    fast = running.reached(defs)
    fast_unvaried = set(running.parameters()[0])
    full = census(SLOW_ROOTS, into=running).reached(defs)
    from tests.core.test_reachability import KEPT_PARAMS, _kept

    unreached = [d for d in defs.values() if d.name not in full]
    names = {d.name for d in unreached}
    # A method of an unreached class counts in its class's lines, once.
    own = [d for d in unreached
           if d.name.rpartition(".")[0] not in names]
    by_module: Dict[str, List[Def]] = {}
    for d in unreached:
        by_module.setdefault(d.name.partition(":")[0], []).append(d)
    counted = {d.name for d in own}
    print("unreached public defs (fast roots + paper set at small scale "
          "+ mini_course_replay)")
    for module, group in sorted(by_module.items()):
        print(f"\n{module}  ({len(group)} defs, "
              f"{sum(d.lines for d in group if d.name in counted)} lines)")
        for d in group:
            print(f"  {d.first:>5} {d.lines:>4}  {d.name.partition(':')[2]}"
                  + ("  [kept]" if _kept(d.name) else ""))
    print(f"\ntotal: {len(unreached)} of {len(defs)} public defs unreached, "
          f"{sum(d.lines for d in own)} lines; "
          f"{sum(_kept(d.name) for d in unreached)} of them kept")
    missed = sorted(full - fast)
    print("fast roots miss, full census reaches: "
          + (", ".join(missed) if missed else "nothing"))

    unvaried, varied = running.parameters()
    print("\ndefaulted parameters no root varies (full census)")
    by_module = {}
    for name in sorted(unvaried):
        by_module.setdefault(name.partition(":")[0], []).append(name)
    for module, names in sorted(by_module.items()):
        print(f"\n{module}  ({len(names)})")
        for name in names:
            print(f"  {name.partition(':')[2]}  = {unvaried[name]}"
                  + ("  [kept]" if name in KEPT_PARAMS else ""))
    print(f"\ntotal: {len(unvaried)} of {len(unvaried) + len(varied)} "
          f"defaulted parameters unvaried; "
          f"{len(set(unvaried) & set(KEPT_PARAMS))} of them kept")
    slow_only = sorted(fast_unvaried - set(unvaried))
    print("fast roots leave unvaried, slow roots vary: "
          + (", ".join(slow_only) if slow_only else "nothing"))


def main(argv: List[str]) -> int:
    sys.path[:0] = [str(ROOT), str(SRC)]
    if argv == ["--report"]:
        report()
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    running = census(FAST_ROOTS)
    unvaried, varied = running.parameters()
    print(json.dumps({"reached": sorted(running.reached(public_defs())),
                      "unvaried": unvaried, "varied": sorted(varied)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
