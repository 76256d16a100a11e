"""Shared state, option, action, and trace types.

This file is the contract between the agent side (beliefs, policies) and the
environment side (ground truth, physics). The split is deliberate: policies
are handed `Belief`, `Retrieval`, and `OptionChoice` objects only, never the
ground-truth latents an environment keeps.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from struct import Struct

from ..errors import ConfigurationError, InputError, SchemaError


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

    def to_json_obj(self) -> dict:
        return {"kind": self.kind.value, "params": dict(sorted(self.params.items()))}


def validate_option(
    option: OptionChoice, schema: dict[OptionKind, tuple[str, ...]]
) -> OptionChoice:
    """Check the option kind and its exact parameter key set against an
    environment's schema, which maps each admitted kind to its keys."""
    if option.kind not in schema:
        raise ConfigurationError(f"option kind {option.kind} not in environment schema")
    expected = set(schema[option.kind])
    got = set(option.params)
    if got != expected:
        raise SchemaError(
            f"option {option.kind.value}: params {sorted(got)} != declared {sorted(expected)}"
        )
    for k, v in option.params.items():
        if not math.isfinite(float(v)):
            raise InputError(f"option {option.kind.value}: param {k!r} is not finite")
    return option


# ---------------------------------------------------------------------------
# Observations and actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatentEvidence:
    """One linear measurement of a latent: response = regressor * value + noise."""

    name: str
    regressor: float
    response: float


@dataclass(frozen=True)
class Observation:
    """Raw per-step sensor payload.

    `values` follows the environment's declared key layout. `latent_evidence`
    is non-empty only on informative steps (contact, landmark, or
    constraint-evaluation events). `landmarks` carries (id, x, y) triples for
    spatial-memory environments.
    """

    values: dict[str, float]
    latent_evidence: tuple[LatentEvidence, ...] = ()
    landmarks: tuple[tuple[int, float, float], ...] = ()


@dataclass(frozen=True)
class Action:
    """Primitive action. `kind` names the actuator, `params` its arguments."""

    kind: str
    params: dict[str, float] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "params": {k: self.params[k] for k in sorted(self.params)}}


NOOP = Action("noop")


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

# `json.dumps(obj, separators=(",", ":"))` without building an encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


@dataclass(frozen=True)
class TraceRecord:
    step: int
    observation: Observation
    action: Action
    option_active: OptionChoice
    observed_by_adversary: bool

    def to_json_line(self) -> str:
        """The record as one compact JSON object.

        Invariant: the line equals, byte for byte, ``json.dumps(obj,
        separators=(",", ":"))`` of the dict with keys step, observation,
        action, option_active and observed_by_adversary, in that order; the
        field order is part of the wire format. The observation object holds
        values (sorted by key), then latent_evidence and landmarks (lists of
        lists) when non-empty. `Trace` writes each line it holds compactly
        equal to this one.
        """
        obs = self.observation
        observation: dict = {"values": {k: obs.values[k] for k in sorted(obs.values)}}
        if obs.latent_evidence:
            observation["latent_evidence"] = [
                [e.name, e.regressor, e.response] for e in obs.latent_evidence
            ]
        if obs.landmarks:
            observation["landmarks"] = [list(t) for t in obs.landmarks]
        return _ENCODER.encode({
            "step": self.step,
            "observation": observation,
            "action": self.action.to_json_obj(),
            "option_active": self.option_active.to_json_obj(),
            "observed_by_adversary": self.observed_by_adversary,
        })


class Trace:
    """Append-only step log with strictly increasing, gap-free step indices.

    A trace has two entry points. `append_floats` takes a record as its
    `_Shape` key and its floats, and keeps it compactly: its shape id and
    floats, in key order, in one flat `array('d')`, written through the
    shape's `%`-template, so no per-step object outlives its step. A
    record's landmark snapshot is passed whole; the trace holds each
    snapshot once, with its JSON encoded once, in a table found by identity
    (equal tuples can differ in a zero's sign), and the record stores its
    place there. `append` takes a record as objects and keeps it whole,
    written by `to_json_line`: a record carrying latent evidence, or one
    `append_floats` cannot write because a value is not a float (an int or
    a bool prints otherwise). The array marks each run of whole records
    with `_WHOLE` and its length. Either way each line is byte-identical
    to `TraceRecord.to_json_line`'s; `records` rebuilds the records for
    readers that want objects.
    """

    def __init__(self):
        self._floats = array("d")
        self._shapes: list[_Shape] = []
        self._whole: list[TraceRecord] = []
        # (snapshot, its JSON) per snapshot; holding it keeps its id, the
        # key of `_snapshot_at`, from being reused.
        self._snapshots: list[tuple[tuple, str]] = []
        self._snapshot_at: dict[int, float] = {}
        self._count = 0
        # The array's length after the last record kept whole: while it
        # stands, the next such record extends that run.
        self._whole_run_end = -1
        # Shape key -> its put function, id and shape.
        self._by_key: dict[tuple, tuple] = {}

    def append(
        self,
        step: int,
        observation: Observation,
        action: Action,
        option_active: OptionChoice,
        observed_by_adversary: bool,
    ) -> None:
        """Append a record kept whole."""
        if step != self._count:
            raise InputError(f"trace step {step} != expected {self._count}")
        self._count = step + 1
        floats = self._floats
        if self._whole_run_end == len(floats):
            floats[-1] += 1.0
        else:
            floats.extend((_WHOLE, 1.0))
            self._whole_run_end = len(floats)
        self._whole.append(
            TraceRecord(step, observation, action, option_active, observed_by_adversary)
        )

    def append_floats(self, step: int, key: tuple, *floats: float, landmarks=None) -> None:
        """Append the record of `_Shape` key `key` from its floats in key
        order: the observation's values, the action's params, the option's
        params. `landmarks` is its snapshot, not empty, when the key has
        landmarks, and must be None otherwise. A record that cannot be
        written from `floats` (a value is not a float) or that is out of
        step goes through `append`, which keeps it whole or refuses it.

        `floats` may hold several records of a key without landmarks, one
        after another, for steps `step`, `step + 1`, …; see `_append_rows`."""
        found = self._by_key.get(key) or self._register(key)
        put, shape_id, shape = found
        at = shape.landmarks_at
        if (at is None) == bool(landmarks):
            raise InputError(f"landmarks {landmarks!r} do not fit trace shape key {key!r}")
        try:
            if at is None:
                packed = put(shape_id, *floats)
            else:
                packed = put(shape_id, self._place(landmarks), *floats)
        except TypeError:
            # `put` takes exactly one record's floats.
            self._append_rows(step, key, found, floats)
            return
        if packed is None or step != self._count:
            if at is not None:
                floats = (*floats[:at], 0.0, *floats[at:])
            record = shape.record(step, floats, [landmarks])
            self.append(step, record.observation, record.action, record.option_active,
                        record.observed_by_adversary)
        else:
            self._count = step + 1
            self._floats.frombytes(packed)

    def _append_rows(self, step: int, key: tuple, found: tuple, floats: tuple) -> None:
        """Append the records of `key` whose floats `floats` holds row after
        row, the first at `step`. InputError, with nothing appended, unless
        the key has no landmarks, there is at least one row, a whole number
        of them, and `step` is the next one. Rows holding a value that is
        not a float go one at a time through `append_floats`, which keeps
        such records whole."""
        _, shape_id, shape = found
        width = shape.width
        if shape.landmarks_at is not None:
            raise InputError(f"{len(floats)} floats are not one record of {key!r}")
        if not width or not floats or len(floats) % width:
            raise InputError(
                f"{len(floats)} floats are not whole records of width {width} for {key!r}")
        if step != self._count:
            raise InputError(f"trace step {step} != expected {self._count}")
        rows = len(floats) // width
        if set(map(type, floats)) != {float}:
            for row in range(rows):
                self.append_floats(step + row, key, *floats[row * width:(row + 1) * width])
            return
        # Shape ids throughout, then each column of floats in its place.
        kept = self._floats
        start = len(kept)
        stride = width + 1
        kept.extend(array("d", (shape_id,)) * (rows * stride))
        values = array("d", floats)
        for column in range(width):
            kept[start + 1 + column::stride] = values[column::width]
        self._count = step + rows

    def _register(self, key: tuple) -> tuple:
        """`key`'s put function, id and shape; InputError unless `key` is a
        record's shape key: its observation keys, landmarks flag, action
        kind, action keys, option kind, option keys and visible flag, each
        group of keys sorted, without repeats, and all str or all int."""
        obs_keys, landmarks, action_kind, action_keys, option_kind, option_keys, visible = key
        if not (
            all(type(keys) is tuple and _json_keys(keys) and keys == tuple(sorted(set(keys)))
                for keys in (obs_keys, action_keys, option_keys))
            and type(landmarks) is bool
            and type(action_kind) is str
            and isinstance(option_kind, OptionKind)
            and type(visible) is bool
        ):
            raise InputError(f"not a trace shape key: {key!r}")
        shape = _Shape.for_key(key)
        if shape not in self._shapes:
            self._shapes.append(shape)
        return self._by_key.setdefault(key, (shape.put, float(self._shapes.index(shape)), shape))

    def _place(self, snapshot: tuple) -> float:
        """The snapshot's place in the table, where its first append puts it."""
        at = self._snapshot_at.get(id(snapshot))
        if at is None:
            at = self._snapshot_at[id(snapshot)] = float(len(self._snapshots))
            self._snapshots.append((snapshot, _ENCODER.encode([list(t) for t in snapshot])))
        return at

    def __getstate__(self) -> dict:
        # Pickle cannot carry generated put functions; shapes pickle by key,
        # and the next append finds them again. Ids mean nothing in another
        # process, so the snapshot table travels without its index.
        return {**self.__dict__, "_by_key": {}, "_snapshot_at": {}}

    def __len__(self) -> int:
        return self._count

    def _walk(self) -> Iterator[tuple["_Shape | None", "array | TraceRecord"]]:
        """Per record, in step order, its shape and its floats, or None and
        the record kept whole."""
        floats = self._floats
        shapes = self._shapes
        whole = iter(self._whole)
        i = 0
        while i < len(floats):
            shape_id = floats[i]
            if shape_id == _WHOLE:
                for _ in range(int(floats[i + 1])):
                    yield None, next(whole)
                i += 2
            else:
                shape = shapes[int(shape_id)]
                start = i + 1
                i = start + shape.width
                yield shape, floats[start:i]

    @property
    def records(self) -> list[TraceRecord]:
        """The records, rebuilt as objects."""
        snapshots = [snapshot for snapshot, _ in self._snapshots]
        return [
            item if shape is None else shape.record(step, item, snapshots)
            for step, (shape, item) in enumerate(self._walk())
        ]

    def jsonl_lines(self) -> Iterator[str]:
        """The records as JSON lines, each ending in a newline."""
        texts = [text for _, text in self._snapshots]
        total = sum(self._floats)
        # Unless the sum is not finite, no float is, and `repr` writes each
        # as JSON does.
        number = _FLOAT_REPR if total - total == 0.0 else _json_number
        for step, (shape, item) in enumerate(self._walk()):
            if shape is None:
                yield item.to_json_line() + "\n"
            elif shape.landmarks_at is None:
                yield shape.template % (step, *map(number, item))
            else:
                at = shape.landmarks_at
                yield shape.template % (
                    step, *map(number, item[:at]), texts[int(item[at])],
                    *map(number, item[at + 1:]),
                )

    def to_jsonl(self) -> str:
        return "".join(self.jsonl_lines())

    def write_jsonl(self, path) -> None:
        """Stream the records to the file at `path` one line at a time, so
        the whole JSONL text never exists in memory at once. The lines go to
        a file beside `path` that then replaces it, so a file at `path` is
        always a whole trace, even after a write cut short."""
        partial = f"{os.fspath(path)}.partial"
        try:
            with open(partial, "w") as fh:
                fh.writelines(self.jsonl_lines())
            os.replace(partial, path)
        except BaseException:
            if os.path.exists(partial):
                os.remove(partial)
            raise


_WHOLE = -1.0  # in place of a shape id: a run of records kept whole
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
    """The fixed part of a compact record: `key` is its sorted observation
    keys, landmarks flag, action kind, sorted action keys, option kind,
    sorted option keys and visible flag, and `width` the number of its
    floats. With landmarks, the float at `landmarks_at` is the snapshot's
    place in the trace's table; else `landmarks_at` is None.

    `template` takes the step and then the floats as text, the snapshot's
    JSON in place of its place, and writes the record's JSON line.
    `put(shape_id, [place,] *floats)` returns the shape id and the floats
    in key order, the place at `landmarks_at`, packed as doubles for
    `array.frombytes`, which costs a third of `array.extend`, or None when
    a value is not a float. It is generated code, so one shape per key is
    built, when a trace first meets the key, and shared by every trace:
    building one per trace would cost each cell its compile time.
    """

    __slots__ = ("key", "width", "landmarks_at", "template", "put")
    _cache: dict[tuple, "_Shape"] = {}

    def __reduce__(self):
        return _Shape.for_key, (self.key,)

    @classmethod
    def for_key(cls, key: tuple) -> "_Shape":
        shape = cls._cache.get(key)
        if shape is None:
            shape = cls._cache[key] = cls(key)
        return shape

    def __init__(self, key: tuple):
        obs_keys, landmarks, action_kind, action_keys, option_kind, option_keys, visible = key
        self.key = key
        self.width = len(obs_keys) + landmarks + len(action_keys) + len(option_keys)
        self.landmarks_at = len(obs_keys) if landmarks else None

        def params(keys):
            return "{" + ",".join(_template_text(k) + ":%s" for k in keys) + "}"

        self.template = (
            '{"step":%d,"observation":{"values":' + params(obs_keys)
            + (',"landmarks":%s' if landmarks else "") + "}"
            + ',"action":{"kind":' + _template_text(action_kind)
            + ',"params":' + params(action_keys) + "}"
            + ',"option_active":{"kind":' + _template_text(option_kind.value)
            + ',"params":' + params(option_keys) + "}"
            + ',"observed_by_adversary":' + ("true" if visible else "false") + "}\n"
        )
        names = [f"v{i}" for i in range(self.width - landmarks)]
        checks = " and ".join(f"type({name}) is float" for name in names) or "True"
        args = ["place"] * landmarks + names
        if landmarks:
            names.insert(self.landmarks_at, "place")
        source = (
            f"def put(shape_id, {', '.join(args)}):\n"
            f"    if {checks}:\n"
            f"        return pack(shape_id, {', '.join(names)})\n"
            "    return None\n"
        )
        namespace: dict = {"pack": Struct(f"{self.width + 1}d").pack}
        exec(compile(source, "<trace shape>", "exec"), namespace)
        self.put = namespace["put"]

    def record(self, step: int, values: array, snapshots: list[tuple]) -> TraceRecord:
        obs_keys, landmarks, action_kind, action_keys, option_kind, option_keys, visible = self.key
        a = len(obs_keys)
        b = a + landmarks
        c = b + len(action_keys)
        return TraceRecord(
            step,
            Observation(dict(zip(obs_keys, values[:a])),
                        landmarks=snapshots[int(values[a])] if landmarks else ()),
            Action(action_kind, dict(zip(action_keys, values[b:c]))),
            OptionChoice(option_kind, dict(zip(option_keys, values[c:]))),
            visible,
        )
