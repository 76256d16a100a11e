"""Trusted construction: build a frozen dataclass from values already checked.

A public constructor checks what it is given. Inside a step loop some
objects are built from values that were checked when they entered the
program, or that the loop derived from such values in a way that keeps them
valid. There, `__init__`'s argument handling, the frozen `__setattr__` and
`__post_init__` cost time on every step and check nothing new.

`@trusted` gives a frozen dataclass a static `_trusted(*values)` that takes
every field positionally, in declaration order, sets each on a bare instance
with `object.__setattr__` and runs nothing else. The builder is generated
once per class, as the dataclass `__init__` is, because a generic loop over
the fields costs more than the `__init__` it would replace. Fields are set
one at a time, in declaration order, so the instance keeps CPython's
key-sharing dict; assigning a whole `__dict__` costs about 150 bytes more
per object.

One class remains: `ObserverBelief`, built by `observer_update` at every
step of family C. Family A's `Belief` is a `NamedTuple`, which has no checks
to skip, and the rest of both families' steps pass floats, their traces
recording through `Trace.append_floats`.

Call `_trusted` only where every value comes from an already-checked object.
`tests/test_trusted_construction.py` lists the functions that do.
"""

from __future__ import annotations

import dataclasses


def trusted(cls: type) -> type:
    """Class decorator: add `cls._trusted`, the unchecked constructor of the
    frozen dataclass `cls`, which takes one value per field in order."""
    if not dataclasses.is_dataclass(cls) or not cls.__dataclass_params__.frozen:
        raise TypeError(f"{cls.__name__} is not a frozen dataclass")
    names = [f.name for f in dataclasses.fields(cls)]
    source = (
        f"def _trusted({', '.join(names)}):\n"
        "    obj = __new(__cls)\n"
        + "".join(f"    __set(obj, {name!r}, {name})\n" for name in names)
        + "    return obj\n"
    )
    namespace = {"__new": object.__new__, "__set": object.__setattr__, "__cls": cls}
    # Named per class, so that profiles tell the builders apart.
    exec(compile(source, f"<{cls.__qualname__}._trusted>", "exec"), namespace)
    builder = namespace["_trusted"]
    builder.__qualname__ = f"{cls.__qualname__}._trusted"
    builder.__doc__ = f"{cls.__name__}({', '.join(names)}) without its checks."
    cls._trusted = staticmethod(builder)
    return cls
