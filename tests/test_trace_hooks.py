"""Every hook of the benchmark's tracer still finds its target in lenalg.

The tracer in perfbench/ patches lenalg functions and methods by name and
skips a target it cannot find, so a refactor that renames one would drop a
per-layer metric without failing anything else.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import COUNT_HOOKS, SET_LENGTH_HOOK, SPAN_HOOKS, Tracer  # noqa: E402

TARGETS = sorted({target for hooks in (SPAN_HOOKS, COUNT_HOOKS)
                  for targets in hooks.values() for target in targets}
                 | {SET_LENGTH_HOOK})


@pytest.mark.parametrize("module_name, attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_trace_hook_target_exists(module_name, attr):
    importlib.import_module(module_name)
    assert Tracer()._target(module_name, attr) is not None
