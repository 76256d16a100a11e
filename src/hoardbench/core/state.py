"""Shared option, latent evidence, and trace types.

This file is the contract between the agent side (beliefs, policies) and the
environment side (ground truth, physics). The split is deliberate: policies
are handed `Belief`, `Retrieval`, and `OptionChoice` objects only, never the
ground-truth latents an environment keeps. An environment records each step
in a `Trace` as a shape key and that step's values, not as a per-step object.
"""

from __future__ import annotations

import json
import os
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from struct import Struct, error as StructError

from ..errors import ConfigurationError, InputError


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


class OptionKind(str, Enum):
    LAUNCH = "launch"
    STABILIZE = "stabilize"
    CACHE = "cache"
    RETRIEVE = "retrieve"
    CONCEAL = "conceal"
    PROPOSE = "propose"


@dataclass(frozen=True)
class OptionChoice:
    """A temporally extended macro-action selected by the high-level policy."""

    kind: OptionKind
    params: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Latent evidence and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatentEvidence:
    """One linear measurement of a latent: response = regressor * value + noise."""

    name: str
    regressor: float
    response: float


# `json.dumps(obj, separators=(",", ":"))` without building an encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class Trace:
    """Append-only step log with strictly increasing, gap-free step indices.

    `append` takes a record as its `_Shape` key and its values, and keeps
    it compactly: its shape id and its values as floats, in key order, in
    one flat `array('d')`, written through the shape's `%`-template, so no
    per-step object outlives its step. A record's landmark snapshot is part
    of its key, as the snapshot's JSON text, which the shape's template
    holds.

    Each line is ``json.dumps(obj, separators=(",", ":"))`` of the record
    with every value passed through `float()`: the dict with keys step,
    observation, action, option_active and observed_by_adversary, in that
    order. The observation holds values (sorted by key), then
    latent_evidence and landmarks (lists of lists) when non-empty; the
    action and the option each hold their kind and params (sorted by key).
    tests/test_core_state.py keeps that record type as the lines' oracle.

    `jsonl_lines(start, stop)` and `write_jsonl(path, start, stop)` give a
    window of those lines, steps `start` up to `stop`, without formatting
    the records before it; with no bounds, the whole trace.
    """

    def __init__(self):
        self._floats = array("d")
        # Shape key -> its shape, in the order of their ids.
        self._shapes: dict[tuple, _Shape] = {}
        self._count = 0

    def append(self, step: int, key: tuple, *values: float) -> None:
        """Append the record of `_Shape` key `key` from its values in key
        order: the observation's values, each latent evidence's regressor
        and response, the action's params, the option's params. InputError,
        with nothing appended, for a record out of step or holding a value
        that is not a number.

        `values` may hold several records of the key, one after another,
        for steps `step`, `step + 1`, …; see `_append_rows`."""
        shape = self._shapes.get(key) or self._register(key)
        if step != self._count:
            raise InputError(f"trace step {step} != expected {self._count}")
        if len(values) != shape.width:
            self._append_rows(step, shape, values)
            return
        try:
            packed = shape.pack(shape.id, *values)
        except _NOT_NUMBERS as error:
            raise InputError(f"trace values {values!r} of {key!r}: {error}") from None
        self._floats.frombytes(packed)
        self._count = step + 1

    def _append_rows(self, step: int, shape: "_Shape", values: tuple) -> None:
        """Append the records of `shape` whose values `values` holds row
        after row, the first at `step`, the next step. InputError, with
        nothing appended, unless there is at least one row, a whole number
        of them, all numbers."""
        width = shape.width
        if not width or not values or len(values) % width:
            raise InputError(
                f"{len(values)} values are not whole records of width {width} for {shape.key!r}")
        try:
            floats = array("d", values)
        except _NOT_NUMBERS as error:
            raise InputError(f"trace values of {shape.key!r}: {error}") from None
        rows = len(values) // width
        # Shape ids throughout, then each column of floats in its place.
        kept = self._floats
        start = len(kept)
        stride = width + 1
        kept.extend(array("d", (shape.id,)) * (rows * stride))
        for column in range(width):
            kept[start + 1 + column::stride] = floats[column::width]
        self._count = step + rows

    def _register(self, key: tuple) -> "_Shape":
        """`key`'s shape; InputError unless `key` is a record's shape key:
        its observation keys, latent evidence names, landmark snapshot (its
        JSON text, not empty, or None), action kind, action keys, option
        kind, option keys and visible flag, each group of keys sorted,
        without repeats, and all str or all int."""
        if type(key) is not tuple or len(key) != 8:
            raise InputError(f"not a trace shape key: {key!r}")
        obs_keys, evidence, landmarks, action_kind, action_keys, option_kind, option_keys, \
            visible = key
        if not (
            all(type(keys) is tuple and _json_keys(keys) and keys == tuple(sorted(set(keys)))
                for keys in (obs_keys, action_keys, option_keys))
            and type(evidence) is tuple and set(map(type, evidence)) <= {str}
            and (landmarks is None or type(landmarks) is str and landmarks != "")
            and type(action_kind) is str
            and isinstance(option_kind, OptionKind)
            and type(visible) is bool
        ):
            raise InputError(f"not a trace shape key: {key!r}")
        shape = self._shapes[key] = _Shape(key, len(self._shapes))
        return shape

    def __len__(self) -> int:
        return self._count

    def jsonl_lines(self, start: int = 0, stop: int | None = None) -> Iterator[str]:
        """The records of steps `start` up to `stop` (the end when None) as
        JSON lines, each ending in a newline: the lines of
        `to_jsonl().splitlines(keepends=True)[start:stop]`. A window past
        the end is cut at the end. Records before `start` are stepped over
        by their size, never formatted. InputError for a negative bound."""
        if start < 0 or (stop is not None and stop < 0):
            raise InputError(f"trace window {start}..{stop} has a negative bound")
        floats = self._floats
        shapes = list(self._shapes.values())
        total = sum(floats)
        # Unless the sum is not finite, no float is, and `repr` writes each
        # as JSON does.
        number = _FLOAT_REPR if total - total == 0.0 else _json_number
        stop = self._count if stop is None else min(stop, self._count)
        # Step over the records before `start`: each is its shape id and its
        # values.
        step = i = 0
        while step < min(start, stop):
            i += 1 + shapes[int(floats[i])].width
            step += 1
        while step < stop:
            shape = shapes[int(floats[i])]
            first = i + 1
            i = first + shape.width
            yield shape.template % (step, *map(number, floats[first:i]))
            step += 1

    def to_jsonl(self) -> str:
        return "".join(self.jsonl_lines())

    def write_jsonl(self, path, start: int = 0, stop: int | None = None) -> None:
        """Stream the records of steps `start` up to `stop`, as
        `jsonl_lines` gives them, to the file at `path` one line at a time,
        so the whole JSONL text never exists in memory at once. The lines go
        to a file beside `path` that then replaces it, so a file at `path`
        always holds the whole window, even after a write cut short."""
        partial = f"{os.fspath(path)}.partial"
        try:
            with open(partial, "w") as fh:
                fh.writelines(self.jsonl_lines(start, stop))
            os.replace(partial, path)
        except BaseException:
            if os.path.exists(partial):
                os.remove(partial)
            raise


# What packing a value that is not a number raises.
_NOT_NUMBERS = (StructError, TypeError, OverflowError)
_FLOAT_REPR = float.__repr__
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(x: float) -> str:
    """`x` as JSON writes it: its `repr`, but NaN and the infinities spelt
    JSON's way."""
    text = _FLOAT_REPR(x)
    return _JSON_NONFINITE.get(text, text)


def _template_text(text: str | int) -> str:
    """`text` as JSON writes it as a string or an object key, safe inside a
    `%`-template."""
    return _ENCODER.encode(str(text)).replace("%", "%%")


def _json_keys(keys) -> bool:
    """Whether a shape can write these dict keys: all str, or all int, which
    sort numerically and which JSON writes as their digits in quotes."""
    types = set(map(type, keys))
    return types <= {str} or types == {int}


class _Shape:
    """The fixed part of a compact record. `key` is its sorted observation
    keys, latent evidence names, landmark snapshot's JSON text (None for
    none), action kind, sorted action keys, option kind, sorted option keys
    and visible flag; `id` its place in its trace's shapes; `width` the
    number of its values, two per evidence name (regressor, response).

    `template` takes the step and then the values as text and writes the
    record's JSON line, the line `Trace` describes and the tests' record
    oracle writes; the snapshot's text is part of the template, verbatim.
    `pack(id, *values)` packs the shape id and the values as doubles for
    `array.frombytes`, which costs a third of `array.extend`.
    """

    __slots__ = ("key", "id", "width", "template", "pack")

    def __reduce__(self):
        # A `Struct`'s `pack` cannot be pickled; the shape is built again.
        return _Shape, (self.key, self.id)

    def __init__(self, key: tuple, shape_id: int):
        obs_keys, evidence, landmarks, action_kind, action_keys, option_kind, option_keys, \
            visible = key
        self.key = key
        self.id = shape_id
        self.width = len(obs_keys) + 2 * len(evidence) + len(action_keys) + len(option_keys)
        self.pack = Struct(f"{1 + self.width}d").pack

        def params(keys):
            return "{" + ",".join(_template_text(k) + ":%s" for k in keys) + "}"

        latent_evidence = ",".join("[" + _template_text(name) + ",%s,%s]" for name in evidence)
        self.template = (
            '{"step":%d,"observation":{"values":' + params(obs_keys)
            + (',"latent_evidence":[' + latent_evidence + "]" if evidence else "")
            + (',"landmarks":' + landmarks.replace("%", "%%") if landmarks else "") + "}"
            + ',"action":{"kind":' + _template_text(action_kind)
            + ',"params":' + params(action_keys) + "}"
            + ',"option_active":{"kind":' + _template_text(option_kind.value)
            + ',"params":' + params(option_keys) + "}"
            + ',"observed_by_adversary":' + ("true" if visible else "false") + "}\n"
        )
