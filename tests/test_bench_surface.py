"""The frozen benchmark patches the program by name; keep the names.

``bench/tracing.py`` swaps every ``module:attr`` row of ``ENTRY_POINTS``
for a timing wrapper.  A perf change that renames or inlines one of those
functions would only fail in the pipeline's traced pass — this fails in
tier-1 instead.
"""

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.tracing import ENTRY_POINTS  # noqa: E402


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
