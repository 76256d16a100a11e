"""Shared state, option, action, and trace types.

This file is the contract between the agent side (beliefs, policies) and the
environment side (ground truth, physics). The split is deliberate: policies
are handed `Belief`, `Retrieval`, and `OptionChoice` objects only, never the
ground-truth `LatentParams` an environment keeps.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

from ..errors import ConfigurationError, InputError, SchemaError
from ..trusted import trusted


# ---------------------------------------------------------------------------
# Embodied / latent / task state
# ---------------------------------------------------------------------------


@trusted
@dataclass(frozen=True)
class EmbodiedState:
    """Plant state: position-like and velocity-like coordinates.

    Stored as tuples so environments of any dimensionality share one type;
    the hidden-dynamics control family uses a single error coordinate.
    """

    position: tuple[float, ...]
    velocity: tuple[float, ...]

    def scalar(self) -> tuple[float, float]:
        """Convenience accessor for 1-D environments."""
        return self.position[0], self.velocity[0]


@dataclass(frozen=True)
class LatentSpec:
    """Declared names and closed ranges for hidden environment parameters."""

    names: tuple[str, ...]
    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.names) == len(self.lows) == len(self.highs)):
            raise ConfigurationError("latent spec fields must have equal length")
        for name, lo, hi in zip(self.names, self.lows, self.highs):
            if not lo <= hi:
                raise ConfigurationError(f"latent {name!r}: empty range [{lo}, {hi}]")

    def index(self, name: str) -> int:
        return self.names.index(name)


@dataclass(frozen=True)
class LatentParams:
    """Ground-truth hidden values. Environment-side only; policies never see this."""

    spec: LatentSpec
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.spec.names):
            raise InputError("latent value count does not match spec")
        for name, lo, hi, v in zip(
            self.spec.names, self.spec.lows, self.spec.highs, self.values
        ):
            if not (lo <= v <= hi):
                raise InputError(f"latent {name!r}={v} outside [{lo}, {hi}]")

    def get(self, name: str) -> float:
        return self.values[self.spec.index(name)]


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
    EXECUTE = "execute"
    CHECK = "check"
    PROBE = "probe"


# Parameter keys each option kind carries by default. Environments may narrow
# or extend this via their own schema; validation always uses exact key sets.
DEFAULT_OPTION_SCHEMA: dict[OptionKind, tuple[str, ...]] = {
    OptionKind.LAUNCH: ("offset", "impulse"),
    OptionKind.STABILIZE: (),
    OptionKind.CACHE: ("x", "y", "item_type", "item_value"),
    OptionKind.RETRIEVE: ("item_type", "x", "y"),
    OptionKind.CONCEAL: ("steps",),
    OptionKind.PROPOSE: (),
    OptionKind.EXECUTE: (),
    OptionKind.CHECK: (),
    OptionKind.PROBE: ("count",),
}

@dataclass(frozen=True)
class OptionChoice:
    """A temporally extended macro-action selected by the high-level policy."""

    kind: OptionKind
    params: dict[str, float] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"kind": self.kind.value, "params": dict(sorted(self.params.items()))}


def validate_option(
    option: OptionChoice, schema: dict[OptionKind, tuple[str, ...]] | None = None
) -> OptionChoice:
    """Check the option kind and its exact parameter key set against a schema."""
    schema = schema or DEFAULT_OPTION_SCHEMA
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


@trusted
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

    def validate(self, keys: tuple[str, ...]) -> "Observation":
        if self.values.keys() != set(keys):
            raise SchemaError(
                f"observation keys {sorted(self.values)} != schema {sorted(keys)}"
            )
        for k, v in self.values.items():
            if not math.isfinite(v):
                raise InputError(f"observation value {k!r} is not finite")
        return self

    def _json_obj_without_landmarks(self) -> dict:
        """The observation's trace object, less the landmark snapshot that
        `TraceRecord.to_json_line` appends as its last key."""
        obj: dict = {"values": {k: self.values[k] for k in sorted(self.values)}}
        if self.latent_evidence:
            obj["latent_evidence"] = [
                [e.name, e.regressor, e.response] for e in self.latent_evidence
            ]
        return obj


@trusted
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

    def to_json_line(self, landmarks_json: dict | None = None) -> str:
        """The record as one compact JSON object.

        Invariant: the line equals, byte for byte, ``json.dumps(obj,
        separators=(",", ":"))`` of the dict with keys step, observation,
        action, option_active and observed_by_adversary, in that order; the
        field order is part of the wire format. The observation object holds
        values (sorted by key), then latent_evidence and landmarks (lists of
        lists) when non-empty. A record without landmarks is encoded in one
        pass. A landmark snapshot is encoded on its own and spliced in.
        `landmarks_json` maps ``id`` of a snapshot to (snapshot, its JSON),
        so a caller encoding many records encodes each snapshot object once;
        holding the snapshot keeps its id from being reused.
        """
        observation = self.observation
        head = {"step": self.step, "observation": observation._json_obj_without_landmarks()}
        tail = {
            "action": self.action.to_json_obj(),
            "option_active": self.option_active.to_json_obj(),
            "observed_by_adversary": self.observed_by_adversary,
        }
        snapshot = observation.landmarks
        if not snapshot:
            head.update(tail)
            return _ENCODER.encode(head)
        memo = {} if landmarks_json is None else landmarks_json
        hit = memo.get(id(snapshot))
        if hit is None:
            hit = memo[id(snapshot)] = (snapshot, _ENCODER.encode([list(t) for t in snapshot]))
        # head ends by closing the observation and the record; tail opens a
        # record of the remaining fields.
        return (
            _ENCODER.encode(head)[:-2] + ',"landmarks":' + hit[1] + "},"
            + _ENCODER.encode(tail)[1:]
        )


class Trace:
    """Append-only step log with strictly increasing, gap-free step indices."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    def append(self, record: TraceRecord) -> None:
        expected = self.records[-1].step + 1 if self.records else 0
        if record.step != expected:
            raise InputError(f"trace step {record.step} != expected {expected}")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def segment(self, start: int, end: int) -> "TraceSegment":
        if not (0 <= start <= end):
            raise InputError("invalid segment bounds")
        recs = tuple(r for r in self.records if start <= r.step <= end)
        return TraceSegment(start, end, recs)

    def jsonl_lines(self) -> Iterator[str]:
        """The records as JSON lines, each ending in a newline."""
        landmarks_json: dict = {}
        for record in self.records:
            yield record.to_json_line(landmarks_json) + "\n"

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


@dataclass(frozen=True)
class TraceSegment:
    """A contiguous slice of a trace, addressed by inclusive step bounds."""

    start: int
    end: int
    records: tuple[TraceRecord, ...] = ()
