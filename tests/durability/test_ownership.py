"""Durability reaches no other object's private state.

Recovery replays each WAL record through the service that owns the state
(``Collection.add_document``, ``Channel.claim``, ``ObjectStore.place_object``
...), and each service writes and loads its own snapshot section.  So no
module under ``repro.durability`` reads or writes a ``_``-prefixed
attribute of any object but ``self``.
"""

import ast
from pathlib import Path

import pytest

import repro.durability

pytestmark = pytest.mark.durability

PACKAGE = Path(repro.durability.__file__).parent


def foreign_private_accesses(package: Path = PACKAGE) -> list:
    """``file:line .attr`` for each ``x._attr`` whose ``x`` is not self."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) \
                    and node.attr.startswith("_") \
                    and not node.attr.startswith("__") \
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    return found


def test_durability_touches_no_other_objects_private_state():
    assert foreign_private_accesses() == []
