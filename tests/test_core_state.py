import dataclasses
import json
import math
import pickle
from array import array
from dataclasses import dataclass, field

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoardbench.core.state import (
    InputError,
    LatentEvidence,
    OptionChoice,
    OptionKind,
    Trace,
)
from hoardbench.controller import ControllerConfig
from hoardbench.envs.family_a import FamilyAConfig, run_family_a
from hoardbench.envs.family_b import FamilyBConfig, run_family_b
from hoardbench.ledger import CostLedger


# The frozen record oracle: one trace record as an object, and its own JSON
# line, which every line `Trace` writes is checked against.


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
        lists) when non-empty. `Trace` writes each record it holds equal to
        this line of the record with every value passed through `float()`.
        """
        obs = self.observation
        observation: dict = {"values": {k: obs.values[k] for k in sorted(obs.values)}}
        if obs.latent_evidence:
            observation["latent_evidence"] = [
                [e.name, e.regressor, e.response] for e in obs.latent_evidence
            ]
        if obs.landmarks:
            observation["landmarks"] = [list(t) for t in obs.landmarks]
        option = self.option_active
        return _ENCODER.encode({
            "step": self.step,
            "observation": observation,
            "action": self.action.to_json_obj(),
            "option_active": {"kind": option.kind.value,
                              "params": dict(sorted(option.params.items()))},
            "observed_by_adversary": self.observed_by_adversary,
        })


def _record(step):
    return TraceRecord(
        step=step,
        observation=Observation({"error": 0.1, "error_rate": 0.0}),
        action=Action("force", {"force": -0.5}),
        option_active=OptionChoice(OptionKind.STABILIZE),
        observed_by_adversary=False,
    )


def _snapshot_text(landmarks):
    """A shape key's snapshot group for these (id, x, y) triples: their JSON
    text, or None for none."""
    return _ENCODER.encode([list(t) for t in landmarks]) if landmarks else None


def _append(trace, record):
    """Append `record` through its shape key and its values in key order."""
    obs, action, option = record.observation, record.action, record.option_active
    obs_keys, action_keys, option_keys = (
        tuple(sorted(params)) for params in (obs.values, action.params, option.params))
    key = (obs_keys, tuple(e.name for e in obs.latent_evidence), _snapshot_text(obs.landmarks),
           action.kind, action_keys, option.kind, option_keys, record.observed_by_adversary)
    values = ([obs.values[k] for k in obs_keys]
              + [v for e in obs.latent_evidence for v in (e.regressor, e.response)]
              + [action.params[k] for k in action_keys]
              + [option.params[k] for k in option_keys])
    trace.append(record.step, key, *values)


def _float_line(record):
    """The oracle: the record's own `to_json_line`, with every value passed
    through `float()`, as the trace keeps it."""
    def floats(params):
        return {k: float(v) for k, v in params.items()}

    obs = record.observation
    evidence = tuple(LatentEvidence(e.name, float(e.regressor), float(e.response))
                     for e in obs.latent_evidence)
    return dataclasses.replace(
        record,
        observation=Observation(floats(obs.values), evidence, obs.landmarks),
        action=Action(record.action.kind, floats(record.action.params)),
        option_active=OptionChoice(record.option_active.kind, floats(record.option_active.params)),
    ).to_json_line() + "\n"


def _lines(records):
    return "".join(map(_float_line, records))


def _trace_of(records):
    trace = Trace()
    for record in records:
        _append(trace, record)
    return trace


def test_trace_steps_gap_free():
    trace = Trace()
    _append(trace, _record(0))
    _append(trace, _record(1))
    with pytest.raises(InputError):
        _append(trace, _record(3))
    assert len(trace) == 2


def test_trace_json_field_order():
    trace = _trace_of([_record(0)])
    line = trace.to_jsonl().splitlines()[0]
    keys = list(json.loads(line).keys())
    assert keys == [
        "step",
        "observation",
        "action",
        "option_active",
        "observed_by_adversary",
    ]


def _reference_line(record):
    """json.dumps of the record dict, built the way the encoder used to."""
    obs = record.observation
    observation = {"values": {k: obs.values[k] for k in sorted(obs.values)}}
    if obs.latent_evidence:
        observation["latent_evidence"] = [
            [e.name, e.regressor, e.response] for e in obs.latent_evidence
        ]
    if obs.landmarks:
        observation["landmarks"] = [list(t) for t in obs.landmarks]
    obj = {
        "step": record.step,
        "observation": observation,
        "action": {"kind": record.action.kind,
                   "params": {k: record.action.params[k] for k in sorted(record.action.params)}},
        "option_active": {"kind": record.option_active.kind.value,
                          "params": dict(sorted(record.option_active.params.items()))},
        "observed_by_adversary": record.observed_by_adversary,
    }
    return json.dumps(obj, separators=(",", ":"))


_any_float = st.floats(allow_nan=True, allow_infinity=True)
_snapshots = st.lists(
    st.tuples(st.integers(0, 30), _any_float, _any_float).map(tuple), max_size=5
).map(tuple)


@st.composite
def _traces(draw):
    # A small pool of snapshots, so records alternate between them and
    # repeat them. Each has an equal copy, which shares its shape, and an
    # equal twin that prints differently, so has a shape of its own: its
    # zeros carry the other sign.
    pool = draw(st.lists(_snapshots, min_size=1, max_size=3))
    pool += [tuple(tuple(t) for t in s) for s in pool] + [
        tuple((i, x if x else -x, y if y else -y) for i, x, y in s) for s in pool
    ]
    records = []
    for step in range(draw(st.integers(0, 8))):
        evidence = tuple(
            LatentEvidence(name, reg, resp)
            for name, reg, resp in draw(
                st.lists(st.tuples(st.text(max_size=3), _any_float, _any_float), max_size=2)
            )
        )
        values = draw(st.dictionaries(st.text(max_size=4), _any_float, max_size=3))
        observation = Observation(values, evidence, draw(st.sampled_from(pool)))
        action = Action(draw(st.text(max_size=4)),
                        draw(st.dictionaries(st.text(max_size=3), _any_float, max_size=3)))
        option = OptionChoice(draw(st.sampled_from(list(OptionKind))),
                              draw(st.dictionaries(st.text(max_size=3), _any_float, max_size=2)))
        records.append(TraceRecord(step, observation, action, option, draw(st.booleans())))
    return records


def _signed_zero_trace():
    records = []
    for step, x in enumerate((0.0, -0.0, 0.0)):
        observation = Observation({"phase": 0.0}, landmarks=((0, x, 0.5), (1, 0.25, 1)))
        option = OptionChoice(OptionKind.STABILIZE)
        records.append(TraceRecord(step, observation, Action("noop"), option, False))
    return records


def _launch(step, error=-0.0):
    """Family A's landing record, which carries latent evidence."""
    return TraceRecord(step, Observation({"error": error, "error_rate": 0.0},
                                         (LatentEvidence("compliance", -0.1, 0.02),)),
                       Action("launch", {"offset": 0.5, "impulse": 0.38}),
                       OptionChoice(OptionKind.LAUNCH, {"offset": 0.5, "impulse": 0.38}), False)


def _trace_without_landmarks():
    return [_launch(0), _record(1), _record(2)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_traces())
@example(_signed_zero_trace())
@example(_trace_without_landmarks())
def test_json_line_is_byte_identical_to_json_dumps(records):
    expected = [_reference_line(r) for r in records]
    assert [r.to_json_line() for r in records] == expected
    assert _trace_of(records).to_jsonl() == "".join(line + "\n" for line in expected)


# `Trace.to_jsonl` against the brute-force oracle, each record's own
# `TraceRecord.to_json_line` with every value passed through `float()`.

_SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0)
_STR_KEYS = ("error", "x", "y", "%", "%s", "%d%%", '"', 'a"b', "é", "")


@st.composite
def _value(draw):
    """Mostly finite floats, then the special ones, ints and bools."""
    pick = draw(st.integers(0, 9))
    if pick == 0:
        return draw(st.sampled_from(_SPECIAL_FLOATS))
    if pick == 1:
        return draw(st.integers(-3, 12))
    if pick == 2:
        return draw(st.booleans())
    return draw(st.floats(allow_nan=False, allow_infinity=False))


_key_sets = st.one_of(
    st.lists(st.sampled_from(_STR_KEYS) | st.text(max_size=3), max_size=4, unique=True),
    st.lists(st.integers(0, 15), max_size=4, unique=True),
)


_coordinates = st.sampled_from((0.0, -0.0, 0.5, 1, math.inf)) | st.floats(allow_nan=False)


@st.composite
def _snapshot_pool(draw):
    """A few landmark snapshots, each with an equal copy, which gives the
    same shape key, and a signed-zero twin: equal too, but its zeros carry
    the other sign, which JSON writes, so its key is another."""
    pool = draw(st.lists(
        st.lists(st.tuples(st.integers(0, 30), _coordinates, _coordinates),
                 min_size=1, max_size=3).map(tuple),
        min_size=1, max_size=2,
    ))
    copies = [tuple(tuple(t) for t in s) for s in pool]
    twins = [tuple((i, x if x else -x, y if y else -y) for i, x, y in s) for s in pool]
    return pool + copies + twins


@st.composite
def _mixed_records(draw):
    # A few shapes that records come back to, with kinds drawn from a small
    # set, so shapes share kinds and take turns. Landmark records draw their
    # snapshot from a small pool, so they share one, alternate between two,
    # and meet equal snapshots that JSON writes differently.
    snapshots = draw(_snapshot_pool())
    shapes = draw(st.lists(
        st.tuples(
            _key_sets,
            st.sampled_from(["force", "dig", "%s"]),
            _key_sets,
            st.sampled_from([OptionKind.STABILIZE, OptionKind.CACHE]),
            _key_sets,
            st.booleans(),
        ),
        min_size=1, max_size=4,
    ))
    records = []
    for step in range(draw(st.integers(0, 12))):
        obs_keys, kind, action_keys, option_kind, option_keys, visible = draw(
            st.sampled_from(shapes)
        )
        observation = Observation(
            {k: draw(_value()) for k in obs_keys},
            (LatentEvidence("compliance", 0.5, -0.25),) if draw(st.integers(0, 5)) == 0 else (),
            draw(st.sampled_from(snapshots)) if draw(st.booleans()) else (),
        )
        action = Action(kind, {k: draw(_value()) for k in action_keys})
        option = OptionChoice(option_kind, {k: draw(_value()) for k in option_keys})
        records.append(TraceRecord(step, observation, action, option, visible))
    return records


def _plan_records():
    # Family D's plan actions: int keys 0..11, which sort numerically.
    return [
        TraceRecord(step, Observation({"round": float(step)}),
                    Action("plan", {k: float(k % 5) for k in range(12)}),
                    OptionChoice(OptionKind.PROPOSE), False)
        for step in range(2)
    ]


def _landmark_records():
    # One snapshot per phase, shared by every record of the phase; then a
    # copy of the first, which shares its shape, and its signed-zero twin,
    # which does not.
    write = ((0, 0.25, -0.0), (1, 0.5, 0.75))
    query = ((0, 0.25, 0.0), (1, 0.5, 0.5))
    records = []
    for step, snapshot in enumerate((write, write, query, write, query, query,
                                     tuple(tuple(t) for t in write), query[:1] + write[1:])):
        records.append(TraceRecord(
            step, Observation({"phase": float(step > 1)}, landmarks=snapshot),
            Action("dig", {"x": 0.5, "y": -0.0}),
            OptionChoice(OptionKind.RETRIEVE, {"item_type": 1.0, "x": 0.5, "y": 0.25}), False,
        ))
    # An int value, and latent evidence.
    option = OptionChoice(OptionKind.CACHE)
    records.append(TraceRecord(len(records), Observation({"phase": 1}, landmarks=write),
                               Action("noop"), option, False))
    evidence = (LatentEvidence("drift", 1, 0.5), LatentEvidence("%s", -0.0, True))
    records.append(TraceRecord(len(records), Observation({"phase": 0.0}, evidence, write),
                               Action("noop"), option, False))
    return records


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_mixed_records())
@example(_plan_records())
@example(_landmark_records())
def test_compact_trace_writes_each_records_own_json_line(records):
    expected = _lines(records)
    trace = _trace_of(records)
    assert len(trace) == len(records)
    assert trace.to_jsonl() == expected
    # A trace shipped back from a pool worker writes the same lines.
    assert pickle.loads(pickle.dumps(trace)).to_jsonl() == expected


def test_plan_action_int_keys_are_written_as_json_strings_in_numeric_order():
    key = (("round",), (), None, "plan", tuple(range(12)), OptionKind.PROPOSE, (), False)
    trace = Trace()
    trace.append(0, key, 0, *(k % 5 for k in range(12)))
    line = trace.to_jsonl().splitlines()[0]
    assert line == _plan_records()[0].to_json_line()
    params = json.loads(line)["action"]["params"]
    assert list(params) == [str(k) for k in range(12)]
    assert '"params":{"0":0.0,"1":1.0,' in line and ',"10":0.0,"11":1.0}' in line


def test_compact_records_keep_no_per_step_object():
    # A family A cell records its landings, which carry latent evidence, and
    # its stabilize steps: the trace holds its two shapes and, per record,
    # only its shape id and its values as floats.
    trials = 3
    trace = Trace()
    run_family_a(FamilyAConfig(trials=trials, horizon=40), ControllerConfig(), CostLedger(), 0,
                 trace=trace)
    launch, stabilize = trace._shapes.values()
    assert (launch.width, stabilize.width) == (8, 3)
    assert len(trace._floats) == trials * (1 + 8) + (len(trace) - trials) * (1 + 3)
    assert len(trace) > 2 * trials
    assert {name: type(value) for name, value in vars(trace).items()} == {
        "_floats": array, "_shapes": dict, "_count": int}


def _family_b_trace():
    trace = Trace()
    run_family_b(FamilyBConfig(n_events=64, landmark_drift=0.01, conflict_rate=0.5),
                 "clustered", CostLedger(), 0, trace=trace)
    return trace


def test_pickled_trace_keeps_its_snapshots_but_not_their_ids():
    # B's writes and queries have a shape each, whose key holds the phase's
    # snapshot as JSON text. A trace shipped back from a pool worker writes
    # the same bytes. It finds a shape by its key's value, not by object: a
    # key rebuilt from the snapshot's triples takes the shape it has.
    trace = _family_b_trace()
    write, query = trace._shapes
    assert type(write[2]) is type(query[2]) is str and write[2] != query[2]
    restored = pickle.loads(pickle.dumps(trace))
    assert restored.to_jsonl() == trace.to_jsonl()
    rebuilt = query[:2] + (_ENCODER.encode(json.loads(query[2])),) + query[3:]
    assert rebuilt == query and rebuilt[2] is not query[2]
    steps = [(key, (0.5,) * restored._shapes[key].width) for key in (rebuilt, write, query)]
    records = _feed(restored, steps, len(restored))
    assert list(restored._shapes) == [write, query]
    assert "".join(restored.jsonl_lines(len(trace))) == _lines(records)


def test_a_snapshot_text_is_written_verbatim():
    # The snapshot's text is part of the shape's `%`-template, so a `%` in
    # it must be written as it is, not read as a conversion.
    snapshot = ((0, "%s", 0.5), (1, "%d%%", -0.0))
    key = _shape_key(("phase",), "dig", ("x",), OptionKind.RETRIEVE, (), False, snapshot)
    trace = Trace()
    trace.append(0, key, 1.0, 0.25, 1, 0.5)
    assert trace.to_jsonl() == _lines([_record_of(0, key, (1.0, 0.25)),
                                       _record_of(1, key, (1, 0.5))])
    assert '"landmarks":[[0,"%s",0.5],[1,"%d%%",-0.0]]}' in trace.to_jsonl()


# Records given as a shape key and values against the same oracle, in
# traces that mix them with records given by `_append`.

_EDGE_FLOATS = (-0.0, 5e-324, math.nan, math.inf, -math.inf)


@st.composite
def _float_value(draw):
    """The edge floats, finite floats, and now and then an int or a bool,
    which the trace keeps as a float."""
    pick = draw(st.integers(0, 11))
    if pick < 3:
        return draw(st.sampled_from(_EDGE_FLOATS))
    if pick == 3:
        return draw(st.integers(-3, 12) | st.booleans())
    return draw(st.floats(allow_nan=False, allow_infinity=False))


def _shape_key(obs_keys, kind, action_keys, option_kind, option_keys, visible, snapshot=(),
               evidence=()):
    """The shape key of these groups, with `snapshot`'s (id, x, y) triples as
    its snapshot text."""
    return (tuple(sorted(obs_keys)), evidence, _snapshot_text(snapshot), kind,
            tuple(sorted(action_keys)), option_kind, tuple(sorted(option_keys)), visible)


_STABILIZE_KEY = _shape_key(("error", "error_rate"), "force", ("force",), OptionKind.STABILIZE,
                            (), False)


def _record_of(step, key, values):
    """The record `append(step, key, *values)` stands for; its snapshot is
    the one whose text the key holds."""
    obs_keys, evidence, snapshot, kind, action_keys, option_kind, option_keys, visible = key
    landmarks = tuple(map(tuple, json.loads(snapshot))) if snapshot else ()
    a = len(obs_keys)
    b = a + 2 * len(evidence)
    c = b + len(action_keys)
    return TraceRecord(
        step,
        Observation(dict(zip(obs_keys, values[:a])),
                    tuple(LatentEvidence(name, *values[a + 2 * i:a + 2 * i + 2])
                          for i, name in enumerate(evidence)),
                    landmarks),
        Action(kind, dict(zip(action_keys, values[b:c]))),
        OptionChoice(option_kind, dict(zip(option_keys, values[c:]))), visible,
    )


@st.composite
def _float_steps(draw):
    """(key, values) to append, or a record for `_append`, per step. A key
    with landmarks holds a snapshot from a small pool that holds equal
    copies and signed-zero twins."""
    snapshots = draw(_snapshot_pool())
    groups = draw(st.lists(
        st.tuples(_key_sets, st.sampled_from(["force", "%s"]), _key_sets,
                  st.sampled_from([OptionKind.STABILIZE, OptionKind.CACHE]), _key_sets,
                  st.booleans(), st.booleans(),
                  st.sampled_from([(), ("compliance",), ("%s", '"')])),
        min_size=1, max_size=3,
    ))
    steps = []
    for step in range(draw(st.integers(0, 14))):
        *fields, landmarks, evidence = draw(st.sampled_from(groups))
        snapshot = draw(st.sampled_from(snapshots)) if landmarks else ()
        key = _shape_key(*fields, snapshot, evidence)
        width = len(key[0]) + 2 * len(key[1]) + len(key[4]) + len(key[6])
        values = tuple(draw(_float_value()) for _ in range(width))
        if draw(st.integers(0, 3)) == 0:
            steps.append(_record_of(step, key, values))
        else:
            steps.append((key, values))
    return steps


def _feed(trace, steps, start=0):
    """Append `steps` from step `start` on; the records they stand for."""
    records = []
    for step, item in enumerate(steps, start):
        if isinstance(item, TraceRecord):
            record = dataclasses.replace(item, step=step)
            _append(trace, record)
        else:
            key, values = item
            trace.append(step, key, *values)
            record = _record_of(step, key, values)
        records.append(record)
    return records


def _stabilize_steps():
    # Family A's stabilize records, with every edge float in each place,
    # after a landing record that carries latent evidence.
    steps = [_launch(0, error=0.1)]
    for x in _EDGE_FLOATS:
        steps += [(_STABILIZE_KEY, (x, 0.25, -1.5)), (_STABILIZE_KEY, (0.25, x, 1.0)),
                  (_STABILIZE_KEY, (1.0, 2.0, x))]
    steps.append((_STABILIZE_KEY, (1, 0.5, True)))
    return steps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_float_steps(), _float_steps())
@example(_stabilize_steps(), _stabilize_steps())
def test_float_entry_point_writes_each_records_own_json_line(steps, more):
    trace = Trace()
    records = _feed(trace, steps)
    assert len(trace) == len(records)
    assert trace.to_jsonl() == _lines(records)
    # A trace shipped back from a pool worker writes the same lines and
    # takes further records.
    restored = pickle.loads(pickle.dumps(trace))
    assert restored.to_jsonl() == _lines(records)
    records += _feed(restored, more, len(records))
    assert restored.to_jsonl() == _lines(records)


_FORCE_KEY = (("error",), (), None, "force", ("force",), OptionKind.STABILIZE, (), False)


def _with_snapshot(text):
    return _FORCE_KEY[:2] + (text,) + _FORCE_KEY[3:]


@pytest.mark.parametrize("keys", [
    [(("error_rate", "error"), (), None, "force", ("force",), OptionKind.STABILIZE, (), False)],
    # A snapshot group that is a flag, as keys once had, empty text, or the
    # snapshot itself in place of its text.
    [_with_snapshot(True), _with_snapshot(False), _with_snapshot(""),
     _with_snapshot(((0, 0.5, 0.5),))],
    [(("error",), (), None, "force", ("force",), "stabilize", (), False)],
    [(("error",), (), None, "force", ("force",), OptionKind.STABILIZE, (), 0)],
    [(("error", "error"), (), None, "force", (), OptionKind.STABILIZE, (), False)],
    [(("error",), (), None, "force", (True,), OptionKind.STABILIZE, (), False),
     (("error",), (), None, "force", (1.0,), OptionKind.STABILIZE, (), False)],
    [(("error",), (1,), None, "force", (), OptionKind.STABILIZE, (), False),
     (("error",), (("compliance",),), None, "force", (), OptionKind.STABILIZE, (), False)],
    # A key without its evidence names.
    [(("error",), None, "force", ("force",), OptionKind.STABILIZE, (), False)],
], ids=["unsorted", "landmarks", "option_kind_str", "visible_int", "duplicate_key", "bool_key",
        "evidence_names", "seven_groups"])
def test_float_entry_point_refuses_a_key_no_record_has(keys):
    trace = Trace()
    for key in keys:
        with pytest.raises(InputError, match="trace shape key"):
            trace.append(0, key, 0.0, 0.0)
    assert len(trace) == 0 and trace._shapes == {} and len(trace._floats) == 0


def test_float_entry_point_keeps_steps_gap_free():
    key = _shape_key(("error", "error_rate"), "force", (), OptionKind.STABILIZE, (), False)
    trace = Trace()
    trace.append(0, key, 0.5, 0.5)
    with pytest.raises(InputError, match="trace step 2 != expected 1"):
        trace.append(2, key, 0.5, 0.5)
    with pytest.raises(InputError, match="not whole records of width 2"):
        trace.append(1, key, 0.5, 0.5, 0.5)
    trace.append(1, key, 0.25, 0.25)
    assert len(trace) == 2


# Several records in one `append` call against the same records appended
# one call each.


def _state(trace):
    """Everything a trace shows of what it holds."""
    return trace.to_jsonl(), len(trace), trace._floats.tobytes()


def _prefixed(prefix):
    """A trace holding `prefix`'s one-record appends, from step 0."""
    trace = Trace()
    for step, values in enumerate(prefix):
        trace.append(step, _STABILIZE_KEY, *values)
    return trace


_ROW = st.tuples(_float_value(), _float_value(), _float_value())
# The keys runs of rows are given in: a stabilize record's, and one of the
# same width that holds a landmark snapshot.
_RUN_KEYS = (
    _STABILIZE_KEY,
    _shape_key(("phase",), "dig", ("x", "y"), OptionKind.RETRIEVE, (), False,
               ((0, 0.5, -0.0), (1, 0.25, 1))),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(_RUN_KEYS), st.lists(_ROW, max_size=3),
       st.lists(_ROW, min_size=1, max_size=12), st.lists(_ROW, max_size=3))
@example(_STABILIZE_KEY, [], [(x, -0.0, 5e-324) for x in _EDGE_FLOATS], [])
@example(_STABILIZE_KEY, [(0.5, 0.5, 0.5)],
         [(0.1, 0.2, 0.3), (0.4, 1, 0.6), (0.7, 0.8, True), (-0.0, 1.0, 2.0)], [(1.0, 2.0, 3.0)])
@example(_RUN_KEYS[1], [(0.5, 0.5, 0.5)], [(0.1, 0.2, 0.3), (0.4, 1, 0.6)], [(1.0, 2.0, 3.0)])
def test_one_call_of_several_records_equals_one_call_each(key, prefix, rows, suffix):
    together, apart = _prefixed(prefix), _prefixed(prefix)
    start = len(prefix)
    together.append(start, key, *[v for row in rows for v in row])
    for step, row in enumerate(rows, start):
        apart.append(step, key, *row)
    assert _state(together) == _state(apart)
    assert list(together._shapes) == list(apart._shapes)
    # Both go on alike after the run, with another shape, and after a trip
    # through pickle.
    for trace in (together, apart):
        _append(trace, _launch(len(trace)))
        for step, row in enumerate(suffix, len(trace)):
            trace.append(step, key, *row)
    assert _state(together) == _state(apart)
    restored = [pickle.loads(pickle.dumps(t)) for t in (together, apart)]
    assert _state(restored[0]) == _state(restored[1]) == _state(apart)


@pytest.mark.parametrize("step, values, match", [
    (1, (), "0 values are not whole records of width 3"),
    (1, (0.5,) * 4, "4 values are not whole records of width 3"),
    (1, (0.5,) * 8, "8 values are not whole records of width 3"),
    (0, (0.5,) * 6, "trace step 0 != expected 1"),
    (2, (0.5,) * 6, "trace step 2 != expected 1"),
    (2, (0.5, 1, True) * 2, "trace step 2 != expected 1"),
    (1, (0.5, "0.5", 0.5), "trace values"),
    (1, (0.5, 0.5, 0.5, 0.5, None, 0.5), "trace values"),
], ids=["no_rows", "width_plus_one", "partial_row", "step_behind", "step_ahead",
        "step_ahead_not_floats", "str_value", "none_value_in_rows"])
def test_a_bad_run_of_records_is_refused_with_nothing_appended(step, values, match):
    trace = _prefixed([(0.1, -0.0, math.nan)])
    before = _state(trace)
    for key in _RUN_KEYS:
        with pytest.raises(InputError, match=match):
            trace.append(step, key, *values)
        assert _state(trace) == before


# A window of a trace against the same slice of its whole JSONL.


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_float_steps(), st.lists(_ROW, max_size=6), st.integers(0, 24),
       st.none() | st.integers(0, 24))
@example(_stabilize_steps(), [(0.5, 1, True)] * 3, 3, 30)
@example([], [], 0, None)
def test_a_window_is_the_slice_of_the_whole_trace(steps, rows, start, stop):
    # Mixed shapes, landmark records and a run of rows in one call; windows
    # cut at the end or wholly past it, and empty ones.
    trace = Trace()
    _feed(trace, steps)
    if rows:
        trace.append(len(trace), _STABILIZE_KEY, *[v for row in rows for v in row])
    lines = trace.to_jsonl().splitlines(keepends=True)
    assert list(trace.jsonl_lines(start, stop)) == lines[start:stop]
    assert list(pickle.loads(pickle.dumps(trace)).jsonl_lines(start, stop)) == lines[start:stop]


def test_a_window_is_written_to_its_file_and_a_negative_bound_is_refused(tmp_path):
    trace = _prefixed([(0.1, -0.0, math.nan), (0.5, 1, True), (2.0, 3.0, 4.0)])
    lines = trace.to_jsonl().splitlines(keepends=True)
    trace.write_jsonl(tmp_path / "window.jsonl", 1, 9)
    assert (tmp_path / "window.jsonl").read_text() == "".join(lines[1:])
    for start, stop in ((-1, None), (0, -1)):
        with pytest.raises(InputError, match="negative bound"):
            list(trace.jsonl_lines(start, stop))
