"""Guards for unchecked construction of the per-step tuples.

`Belief` and `ObserverBelief` are tuples. A public constructor checks what
it is given (`Belief` has nothing to check); inside a step loop,
`update_belief` and `observer_update` build their results with
`tuple.__new__`, which checks nothing, from values that were checked on
the way in or derived from them in a way that keeps them valid. These
tests pin three things: both paths build the same object from valid
input; the public entry points (constructors, and `accrue` for step costs)
still reject invalid input; and only an allow-listed set of internal
functions builds one of these classes unchecked at all.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hoardbench
from hoardbench.core.belief import BeliefConfig, initial_belief, update_belief
from hoardbench.core.state import InputError
from hoardbench.ledger import CostLedger, accrue
from hoardbench.observer import OBSERVER_GRID, ObserverBelief

COVERED = (ObserverBelief,)
# The classes whose unchecked builds the scan below looks for.
UNCHECKED = {"Belief", "ObserverBelief"}

# Every function that may build one of `UNCHECKED` unchecked, as
# "module:qualname". Each builds only from values that were checked on the
# way in or derived from them in a way that keeps them valid; see the
# docstring at each one.
ALLOWED_CALLERS = {
    "hoardbench.core.belief:update_belief",
    "hoardbench.observer:observer_update",
}

SRC = Path(hoardbench.__file__).resolve().parent


def _field_values(cls, draw):
    """One valid value per field of `cls`, in declaration order."""
    if cls is ObserverBelief:
        return [
            draw(
                arrays(np.float64, (OBSERVER_GRID, OBSERVER_GRID), elements=st.floats(0.0, 1.0))
                .filter(lambda grid: grid.sum() > 0.0)
            ),
            draw(st.floats(0.0, 1.0)),
        ]
    raise AssertionError(f"no strategy for {cls.__name__}")


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("cls", COVERED, ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_trusted_path_builds_what_the_public_constructor_builds(cls, data):
    values = _field_values(cls, data.draw)
    public = cls(*values)
    built = tuple.__new__(cls, values)
    assert type(built) is cls
    # Exactly the fields, in declaration order, each holding the value
    # passed in.
    assert len(built) == len(cls._fields)
    for name, value in zip(cls._fields, values):
        assert getattr(built, name) is value
        assert _same(getattr(built, name), getattr(public, name)), name
    with pytest.raises(AttributeError):
        setattr(built, cls._fields[0], values[0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: accrue(CostLedger(), task=-1.0),
        lambda: accrue(CostLedger(), latency=math.nan),
        lambda: accrue(CostLedger(), leak=math.inf),
        lambda: accrue(CostLedger(), repair=-1e-300),
        lambda: accrue(CostLedger(), compute=-0.5),
        lambda: ObserverBelief(np.full((OBSERVER_GRID, OBSERVER_GRID), -1.0 / 400)),
        lambda: ObserverBelief(np.where(np.eye(OBSERVER_GRID) > 0, -1e-9, 0.01)),
        lambda: ObserverBelief(np.zeros((OBSERVER_GRID, OBSERVER_GRID - 1))),
        lambda: ObserverBelief(np.ones((OBSERVER_GRID, OBSERVER_GRID)), 1.5),
        lambda: initial_belief(BeliefConfig(latent_prior_variance=-1.0), 0.0, 0.0),
    ],
)
def test_public_constructors_still_reject_invalid_input(build):
    with pytest.raises(InputError):
        build()


@pytest.mark.parametrize(
    "values",
    [
        {"error": math.nan, "error_rate": 0.0},
        {"error": 0.0, "error_rate": math.inf},
    ],
)
def test_update_belief_validates_an_observation_built_unchecked(values):
    # update_belief builds its new Belief, a tuple, with no checks, so it
    # must refuse a reading that is not finite before the reading reaches
    # the queue.
    config = BeliefConfig(delay=1)
    belief = initial_belief(config, 0.0, 0.0)
    with pytest.raises(InputError, match="is not finite"):
        update_belief(belief, values["error"], values["error_rate"], 0.0, config)


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        yield ".".join(parts), ast.parse(path.read_text())


def _unchecked_builders(tree: ast.AST, module: str) -> set[str]:
    """module:qualname of each function with a call that takes one of
    `UNCHECKED` as its first argument, as `tuple.__new__(Belief, ...)` or
    an alias of it does; a call outside any function reads as
    module:<module>."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Name)
                and node.args[0].id in UNCHECKED):
            found.add(f"{module}:{'.'.join(scope) or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_allow_listed_functions_reach_the_trusted_path():
    users = set()
    for module, tree in _modules():
        users |= _unchecked_builders(tree, module)
    assert users == ALLOWED_CALLERS


def test_scan_sees_calls_in_methods_and_at_module_level():
    tree = ast.parse(
        "class K:\n"
        "    def f(self):\n"
        "        return tuple.__new__(ObserverBelief, (grid, 0.0))\n"
        "    def g(self):\n"
        "        return ObserverBelief(grid), isinstance(self, Belief)\n"
        "build = _new_belief(Belief, fields)\n"
    )
    assert _unchecked_builders(tree, "m") == {"m:K.f", "m:<module>"}
