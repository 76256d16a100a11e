import importlib
import sys
import types
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["hoardbench", "hoardbench.core", "hoardbench.envs"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
    assert len(set(package.__all__)) == len(package.__all__)


def _perfbench_tracing():
    """perfbench/tracing.py, run from its source so that nothing is written
    beside it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_perfbench_span_target_is_a_function_its_module_defines():
    # The benchmark wraps these by name; a renamed one would go untraced.
    tracing = _perfbench_tracing()
    targets = [(m, f) for m, f, _ in tracing.SPAN_TARGETS] + [tracing.VIOLATIONS_TARGET]
    missing = []
    for module, name in targets:
        target = vars(importlib.import_module(module)).get(name)
        if not (callable(target) and target.__module__ == module):
            missing.append(f"{module}.{name}")
    assert missing == []
