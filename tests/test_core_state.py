import dataclasses
import json
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoardbench.core.state import (
    Action,
    ConfigurationError,
    InputError,
    LatentEvidence,
    NOOP,
    Observation,
    OptionChoice,
    OptionKind,
    SchemaError,
    Trace,
    TraceRecord,
    validate_option,
)
from hoardbench.envs.family_b import FamilyBConfig, run_family_b
from hoardbench.ledger import CostLedger


def _record(step):
    return TraceRecord(
        step=step,
        observation=Observation({"error": 0.1, "error_rate": 0.0}),
        action=Action("force", {"force": -0.5}),
        option_active=OptionChoice(OptionKind.STABILIZE),
        observed_by_adversary=False,
    )


def _append(trace, record):
    trace.append(record.step, record.observation, record.action, record.option_active,
                 record.observed_by_adversary)


def _trace_of(records):
    trace = Trace()
    for record in records:
        _append(trace, record)
    return trace


def test_option_schema_exact_keys():
    schema = {OptionKind.LAUNCH: ("offset", "impulse")}
    ok = OptionChoice(OptionKind.LAUNCH, {"offset": 0.5, "impulse": 0.4})
    assert validate_option(ok, schema) is ok
    with pytest.raises(SchemaError):
        validate_option(OptionChoice(OptionKind.LAUNCH, {"offset": 0.5}), schema)
    with pytest.raises(SchemaError):
        validate_option(
            OptionChoice(OptionKind.LAUNCH, {"offset": 0.5, "impulse": 0.4, "extra": 1.0}),
            schema,
        )
    with pytest.raises(ConfigurationError, match="not in environment schema"):
        validate_option(OptionChoice(OptionKind.STABILIZE), schema)


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
    # repeat them. Each has an equal copy that is another object, and an
    # equal twin that prints differently: its zeros carry the other sign.
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
        records.append(TraceRecord(step, observation, NOOP, option, False))
    return records


def _trace_without_landmarks():
    evidence = (LatentEvidence("compliance", -0.1, 0.02),)
    launch = TraceRecord(0, Observation({"error": -0.0, "error_rate": 0.0}, evidence),
                         Action("launch", {"offset": 0.5, "impulse": 0.38}),
                         OptionChoice(OptionKind.LAUNCH, {"offset": 0.5, "impulse": 0.38}),
                         False)
    return [launch, _record(1), _record(2)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_traces())
@example(_signed_zero_trace())
@example(_trace_without_landmarks())
def test_json_line_is_byte_identical_to_json_dumps(records):
    expected = [_reference_line(r) for r in records]
    assert [r.to_json_line() for r in records] == expected
    assert _trace_of(records).to_jsonl() == "".join(line + "\n" for line in expected)


# Records kept whole: `Trace.to_jsonl` of records given to `append` against
# the brute-force oracle, each record's own `TraceRecord.to_json_line`.

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
    """A few landmark snapshots, each with an equal copy that is another
    object and a signed-zero twin: equal too, but its zeros carry the other
    sign, which JSON writes."""
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
    # snapshot object from a small pool, so they share one, alternate
    # between two, and meet equal objects that are not the same one.
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
    # One snapshot object per phase, shared by every record of the phase;
    # then a copy of the first, equal but another object, and its
    # signed-zero twin.
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
                               NOOP, option, False))
    evidence = (LatentEvidence("drift", 1.0, 0.5),)
    records.append(TraceRecord(len(records), Observation({"phase": 0.0}, evidence, write),
                               NOOP, option, False))
    return records


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_mixed_records())
@example(_plan_records())
@example(_landmark_records())
def test_compact_trace_writes_each_records_own_json_line(records):
    expected = "".join(r.to_json_line() + "\n" for r in records)
    trace = _trace_of(records)
    assert len(trace) == len(records)
    assert trace.to_jsonl() == expected
    # The records rebuilt from the compact form, and a trace shipped back
    # from a pool worker, write the same lines.
    assert "".join(r.to_json_line() + "\n" for r in trace.records) == expected
    assert pickle.loads(pickle.dumps(trace)).to_jsonl() == expected


def test_plan_action_int_keys_are_written_as_json_strings_in_numeric_order():
    key = (("round",), False, "plan", tuple(range(12)), OptionKind.PROPOSE, (), False)
    trace = Trace()
    trace.append_floats(0, key, 0.0, *(float(k % 5) for k in range(12)))
    line = trace.to_jsonl().splitlines()[0]
    assert line == _plan_records()[0].to_json_line()
    params = json.loads(line)["action"]["params"]
    assert list(params) == [str(k) for k in range(12)]
    assert '"params":{"0":0.0,"1":1.0,' in line and ',"10":0.0,"11":1.0}' in line


def test_compact_records_keep_no_per_step_object():
    # A family B cell records every step by its floats and its phase's
    # snapshot: nothing is kept whole, and the trace holds each snapshot
    # once.
    trace = _family_b_trace()
    assert len(trace) > 0 and trace._whole == []
    assert len(trace._snapshots) == 2
    # `append` keeps its record whole, with the objects it was given.
    launch = Observation({"error": 0.0}, (LatentEvidence("compliance", 1.0, 0.5),))
    trace.append(len(trace), launch, NOOP, OptionChoice(OptionKind.LAUNCH), False)
    assert len(trace._whole) == 1 and trace._whole[0].observation is launch


def _family_b_trace():
    trace = Trace()
    run_family_b(FamilyBConfig(n_events=64, landmark_drift=0.01, conflict_rate=0.5),
                 "clustered", CostLedger(), 0, trace=trace)
    return trace


def test_pickled_trace_keeps_its_snapshots_but_not_their_ids():
    trace = _family_b_trace()
    expected = trace.to_jsonl()
    restored = pickle.loads(pickle.dumps(trace))
    assert restored.to_jsonl() == expected
    assert restored.records == trace.records
    # Ids mean nothing in another process. Free the snapshots the pickled
    # trace held, then append snapshots of their size, which CPython often
    # puts at a freed one's address and so gives its id: each gets its own
    # entry, and every line is still the record's own.
    held = {id(snapshot) for snapshot, _ in trace._snapshots}
    size = len(trace._snapshots[0][0])
    del trace
    fresh = [tuple((i, float(j), -0.0) for i in range(size)) for j in range(50)]
    reused = [s for s in fresh if id(s) in held] or fresh[:1]
    records = list(restored.records)
    key = (("phase",), True, "noop", (), OptionKind.CACHE, (), False)
    for snapshot in reused + reused:
        restored.append_floats(len(records), key, 1.0, landmarks=snapshot)
        records.append(TraceRecord(len(records), Observation({"phase": 1.0}, landmarks=snapshot),
                                   NOOP, OptionChoice(OptionKind.CACHE), False))
    assert len(restored._snapshots) == 2 + len(reused)
    assert restored.to_jsonl() == "".join(r.to_json_line() + "\n" for r in records)


# The float entry point: `Trace.append_floats` against the same oracle, each
# record's own `TraceRecord.to_json_line`, in traces that mix it with
# `append`.

_EDGE_FLOATS = (-0.0, 5e-324, math.nan, math.inf, -math.inf)


@st.composite
def _float_value(draw):
    """The edge floats, finite floats, and now and then an int or a bool,
    which the float entry point must keep whole."""
    pick = draw(st.integers(0, 11))
    if pick < 3:
        return draw(st.sampled_from(_EDGE_FLOATS))
    if pick == 3:
        return draw(st.integers(-3, 12) | st.booleans())
    return draw(st.floats(allow_nan=False, allow_infinity=False))


def _shape_key(obs_keys, kind, action_keys, option_kind, option_keys, visible, landmarks=False):
    return (tuple(sorted(obs_keys)), landmarks, kind, tuple(sorted(action_keys)), option_kind,
            tuple(sorted(option_keys)), visible)


_STABILIZE_KEY = _shape_key(("error", "error_rate"), "force", ("force",), OptionKind.STABILIZE,
                            (), False)


def _record_of(step, key, values, landmarks=None):
    """The record `append_floats(step, key, *values, landmarks=landmarks)`
    stands for."""
    obs_keys, _, kind, action_keys, option_kind, option_keys, visible = key
    a, b = len(obs_keys), len(obs_keys) + len(action_keys)
    return TraceRecord(step, Observation(dict(zip(obs_keys, values[:a])),
                                         landmarks=landmarks or ()),
                       Action(kind, dict(zip(action_keys, values[a:b]))),
                       OptionChoice(option_kind, dict(zip(option_keys, values[b:]))), visible)


@st.composite
def _float_steps(draw):
    """(key, values, snapshot) for a float append, or a record for
    `append`, per step. A key with landmarks takes a snapshot from a small
    pool that holds equal copies and signed-zero twins; other keys take
    None."""
    snapshots = draw(_snapshot_pool())
    keys = draw(st.lists(
        st.builds(_shape_key, _key_sets, st.sampled_from(["force", "%s"]), _key_sets,
                  st.sampled_from([OptionKind.STABILIZE, OptionKind.CACHE]), _key_sets,
                  st.booleans(), st.booleans()),
        min_size=1, max_size=3,
    ))
    steps = []
    for step in range(draw(st.integers(0, 14))):
        key = draw(st.sampled_from(keys))
        width = len(key[0]) + len(key[3]) + len(key[5])
        values = tuple(draw(_float_value()) for _ in range(width))
        snapshot = draw(st.sampled_from(snapshots)) if key[1] else None
        if draw(st.integers(0, 3)) == 0:
            record = _record_of(step, key, values, snapshot)
            if draw(st.booleans()):
                evidence = (LatentEvidence("compliance", draw(_float_value()), 0.5),)
                record = dataclasses.replace(
                    record, observation=dataclasses.replace(record.observation,
                                                            latent_evidence=evidence))
            steps.append(record)
        else:
            steps.append((key, values, snapshot))
    return steps


def _feed(trace, steps, start=0):
    """Append `steps` from step `start` on; the records they stand for."""
    records = []
    for step, item in enumerate(steps, start):
        if isinstance(item, TraceRecord):
            record = dataclasses.replace(item, step=step)
            _append(trace, record)
        else:
            key, values, snapshot = item
            trace.append_floats(step, key, *values, landmarks=snapshot)
            record = _record_of(step, key, values, snapshot)
        records.append(record)
    return records


def _lines(records):
    return "".join(r.to_json_line() + "\n" for r in records)


def _stabilize_steps():
    # Family A's stabilize records, with every edge float in each place,
    # after a launch record that carries latent evidence.
    key = _shape_key(("error", "error_rate"), "force", ("force",), OptionKind.STABILIZE, (),
                     False)
    launch = TraceRecord(0, Observation({"error": 0.1, "error_rate": -0.0},
                                        (LatentEvidence("compliance", -0.1, 0.02),)),
                         Action("launch", {"offset": 0.5, "impulse": 0.38}),
                         OptionChoice(OptionKind.LAUNCH, {"offset": 0.5, "impulse": 0.38}), False)
    steps = [launch]
    for x in _EDGE_FLOATS:
        steps += [(key, (x, 0.25, -1.5), None), (key, (0.25, x, 1.0), None),
                  (key, (1.0, 2.0, x), None)]
    steps.append((key, (1, 0.5, 0.5), None))
    return steps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_float_steps(), _float_steps())
@example(_stabilize_steps(), _stabilize_steps())
def test_float_entry_point_writes_each_records_own_json_line(steps, more):
    trace = Trace()
    records = _feed(trace, steps)
    assert len(trace) == len(records)
    assert trace.to_jsonl() == _lines(records)
    # `records` rebuilds every record: the same line, the same value types.
    rebuilt = trace.records
    assert _lines(rebuilt) == _lines(records)
    for got, want in zip(rebuilt, records):
        assert [type(v) for v in got.observation.values.values()] == [
            type(v) for v in want.observation.values.values()]
    # A trace shipped back from a pool worker writes the same lines and
    # takes further records by either entry point.
    restored = pickle.loads(pickle.dumps(trace))
    assert restored.to_jsonl() == _lines(records)
    records += _feed(restored, more, len(records))
    assert restored.to_jsonl() == _lines(records)
    assert _lines(restored.records) == _lines(records)


def test_float_entry_point_shares_the_compact_form_with_append():
    # Only the float entry point keeps records compactly: `append` keeps
    # each record whole, in one run, and both write the same lines.
    by_floats, by_objects = Trace(), Trace()
    for step in range(3):
        by_floats.append_floats(step, _STABILIZE_KEY, 0.1, 0.0, -0.5)
        _append(by_objects, _record(step))
    assert by_floats._whole == [] and len(by_floats._floats) == 3 * 4
    assert by_objects._whole == [_record(step) for step in range(3)]
    assert list(by_objects._floats) == [-1.0, 3.0] and by_objects._shapes == []
    assert by_floats.to_jsonl() == by_objects.to_jsonl()


_FORCE_KEY = (("error",), False, "force", ("force",), OptionKind.STABILIZE, (), False)
_FORCE_KEY_WITH_LANDMARKS = (("error",), True, "force", ("force",), OptionKind.STABILIZE, (),
                             False)


@pytest.mark.parametrize("calls", [
    [((("error_rate", "error"), False, "force", ("force",), OptionKind.STABILIZE, (), False),
      None)],
    # A key with landmarks and no snapshot or an empty one; a snapshot with
    # a key without landmarks.
    [(_FORCE_KEY_WITH_LANDMARKS, None), (_FORCE_KEY_WITH_LANDMARKS, ()),
     (_FORCE_KEY, ((0, 0.5, 0.5),))],
    [((("error",), False, "force", ("force",), "stabilize", (), False), None)],
    [((("error",), False, "force", ("force",), OptionKind.STABILIZE, (), 0), None)],
    [((("error", "error"), False, "force", (), OptionKind.STABILIZE, (), False), None)],
    [((("error",), False, "force", (True,), OptionKind.STABILIZE, (), False), None),
     ((("error",), False, "force", (1.0,), OptionKind.STABILIZE, (), False), None)],
], ids=["unsorted", "landmarks", "option_kind_str", "visible_int", "duplicate_key", "bool_key"])
def test_float_entry_point_refuses_a_key_no_record_has(calls):
    trace = Trace()
    for key, snapshot in calls:
        with pytest.raises(InputError, match="trace shape key"):
            trace.append_floats(0, key, 0.0, 0.0, landmarks=snapshot)
    assert len(trace) == 0 and trace._snapshots == [] and len(trace._floats) == 0


def test_float_entry_point_keeps_steps_gap_free():
    key = _shape_key(("error", "error_rate"), "force", (), OptionKind.STABILIZE, (), False)
    trace = Trace()
    trace.append_floats(0, key, 0.5, 0.5)
    with pytest.raises(InputError, match="trace step 2 != expected 1"):
        trace.append_floats(2, key, 0.5, 0.5)
    with pytest.raises(InputError, match="not whole records of width 2"):
        trace.append_floats(1, key, 0.5, 0.5, 0.5)
    trace.append_floats(1, key, 0.25, 0.25)
    assert len(trace) == 2


# Several records in one `append_floats` call against the same records
# appended one call each.


def _state(trace):
    """Everything a trace shows of what it holds."""
    return trace.to_jsonl(), _lines(trace.records), len(trace)


def _prefixed(prefix):
    """A trace holding `prefix`'s one-record appends, from step 0."""
    trace = Trace()
    for step, values in enumerate(prefix):
        trace.append_floats(step, _STABILIZE_KEY, *values)
    return trace


_ROW = st.tuples(_float_value(), _float_value(), _float_value())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(_ROW, max_size=3), st.lists(_ROW, min_size=1, max_size=12), st.lists(_ROW, max_size=3))
@example([], [(x, -0.0, 5e-324) for x in _EDGE_FLOATS], [])
@example([(0.5, 0.5, 0.5)], [(0.1, 0.2, 0.3), (0.4, 1, 0.6), (0.7, 0.8, True), (-0.0, 1.0, 2.0)],
         [(1.0, 2.0, 3.0)])
def test_one_call_of_several_records_equals_one_call_each(prefix, rows, suffix):
    together, apart = _prefixed(prefix), _prefixed(prefix)
    start = len(prefix)
    together.append_floats(start, _STABILIZE_KEY, *[v for row in rows for v in row])
    for step, row in enumerate(rows, start):
        apart.append_floats(step, _STABILIZE_KEY, *row)
    assert _state(together) == _state(apart)
    assert together._floats.tobytes() == apart._floats.tobytes()
    assert together._whole == apart._whole and together._shapes == apart._shapes
    # Both go on alike after the run, and after a trip through pickle.
    record = _record_of(0, _STABILIZE_KEY, (0.0,) * 3)
    for trace in (together, apart):
        _append(trace, dataclasses.replace(record, step=len(trace)))
        for step, row in enumerate(suffix, len(trace)):
            trace.append_floats(step, _STABILIZE_KEY, *row)
    assert _state(together) == _state(apart)
    restored = [pickle.loads(pickle.dumps(t)) for t in (together, apart)]
    assert _state(restored[0]) == _state(restored[1]) == _state(apart)
    assert restored[0]._floats.tobytes() == restored[1]._floats.tobytes()


@pytest.mark.parametrize("step, floats, match", [
    (1, (), "0 floats are not whole records of width 3"),
    (1, (0.5,) * 4, "4 floats are not whole records of width 3"),
    (1, (0.5,) * 8, "8 floats are not whole records of width 3"),
    (0, (0.5,) * 6, "trace step 0 != expected 1"),
    (2, (0.5,) * 6, "trace step 2 != expected 1"),
    (2, (0.5, 1, True) * 2, "trace step 2 != expected 1"),
], ids=["no_rows", "width_plus_one", "partial_row", "step_behind", "step_ahead",
        "step_ahead_not_floats"])
def test_a_bad_run_of_records_is_refused_with_nothing_appended(step, floats, match):
    trace = _prefixed([(0.1, -0.0, math.nan)])
    before = _state(trace), trace._floats.tobytes(), list(trace._whole)
    with pytest.raises(InputError, match=match):
        trace.append_floats(step, _STABILIZE_KEY, *floats)
    assert (_state(trace), trace._floats.tobytes(), list(trace._whole)) == before


@pytest.mark.parametrize("floats", [(), (0.5,), (0.5,) * 3, (0.5,) * 8, (0.5,) * 10],
                         ids=["none", "one", "three", "two_records", "two_rows_with_place"])
def test_a_landmark_record_is_appended_one_at_a_time(floats):
    # Four floats make one record of the key; ten would be two whole rows
    # of its width with the snapshot's place, and are refused all the same.
    key = _shape_key(("phase",), "dig", ("x", "y"), OptionKind.RETRIEVE, ("item_type",), False,
                     landmarks=True)
    trace = _prefixed([(0.1, -0.0, math.nan)])
    before = _state(trace), trace._floats.tobytes(), list(trace._whole)
    with pytest.raises(InputError, match="not one record"):
        trace.append_floats(1, key, *floats, landmarks=((0, 0.5, -0.0),))
    assert (_state(trace), trace._floats.tobytes(), list(trace._whole)) == before
