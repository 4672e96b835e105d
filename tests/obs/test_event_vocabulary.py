"""One event vocabulary: every ``emit`` under ``src/repro`` names an
:class:`~repro.obs.events.EventType` constant, and every constant has an
emitter.

An emit is a call of ``emit``, ``_emit`` or ``_emit_event`` (the worker's,
the pool's and the broker channel's forwarders to the event log).  Its type
— the first argument, or ``type=`` — is ``EventType.<NAME>``; a forwarder
passes on its own ``type`` parameter, and its callers are emits in turn.
A type spelled as a string literal, or a constant nothing emits, fails.
"""

import ast
from pathlib import Path

from repro.obs.events import EventType

ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"
EMITS = ("emit", "_emit", "_emit_event")


def _constants() -> set:
    return {name for name, value in vars(EventType).items()
            if name.isupper() and isinstance(value, str)}


def _emits():
    """``(site, type node, enclosing def's parameters)`` per emit call."""
    for path in sorted(ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text())
        site = path.relative_to(ROOT).as_posix()
        stack = [(tree, set())]
        while stack:
            node, params = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = {a.arg for a in node.args.args + node.args.kwonlyargs}
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in EMITS:
                type_node = node.args[0] if node.args else next(
                    (k.value for k in node.keywords if k.arg == "type"), None)
                yield f"{site}:{node.lineno}", type_node, params
            stack.extend((child, params)
                         for child in ast.iter_child_nodes(node))


def test_every_emit_names_a_constant():
    constants = _constants()
    strays = []
    for site, node, params in _emits():
        named = isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "EventType" and node.attr in constants
        forwarded = isinstance(node, ast.Name) and node.id in params
        if not (named or forwarded):
            strays.append(f"{site}: {ast.unparse(node) if node else None}")
    assert not strays, strays


def test_every_constant_has_an_emitter():
    emitted = {node.attr for _, node, _ in _emits()
               if isinstance(node, ast.Attribute)}
    assert _constants() - emitted == set()


def test_the_guard_sees_the_emits():
    """A scan that found nothing would pass both tests above."""
    sites = [site for site, _, _ in _emits()]
    assert len(sites) >= len(_constants())
    assert any(site.startswith("core/worker.py") for site in sites)
