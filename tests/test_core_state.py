import json
import math
import pickle
import weakref

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


def test_observation_schema_and_finiteness():
    obs = Observation({"error": 0.0, "error_rate": 1.0})
    obs.validate(("error", "error_rate"))
    obs.validate(("error_rate", "error", "error"))
    with pytest.raises(SchemaError):
        obs.validate(("error",))
    # Same size, other keys: the message lists both sorted key sets.
    with pytest.raises(SchemaError) as info:
        obs.validate(("rate", "error"))
    assert str(info.value) == "observation keys ['error', 'error_rate'] != schema ['error', 'rate']"
    with pytest.raises(InputError):
        Observation({"error": float("nan"), "error_rate": 0.0}).validate(
            ("error", "error_rate")
        )


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


# Compact traces: `Trace.to_jsonl` against the brute-force oracle, each
# record's own `TraceRecord.to_json_line`.

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


def _look_alike_records():
    # Same kinds and flag, so each record first tries the shape of the one
    # before: one more key; bool and float keys equal to an int key, which
    # JSON writes as "true" and "1.0"; and a visible flag that equals True
    # but is an int, which JSON writes as 1.
    option = OptionChoice(OptionKind.CACHE)
    params = ({}, {}, {1: 0.5}, {True: 0.5}, {1.0: 0.5}, {1: 0.5}, {})
    records = [
        TraceRecord(step, Observation({"x": 0.5}), Action("dig", p), option, True)
        for step, p in enumerate(params)
    ]
    records[1] = TraceRecord(1, Observation({"x": 0.5, "y": 0.25}), Action("dig", {}), option, True)
    records.append(TraceRecord(len(records), Observation({"x": 0.5}), Action("dig", {}), option, 1))
    # Bool and float keys in a record of kinds not seen before.
    for kind, key in (("flag", False), ("real", 2.5)):
        records.append(TraceRecord(len(records), Observation({}), Action(kind, {key: 0.25}),
                                   option, False))
    return records


def _landmark_records():
    # Family B's records: one snapshot object per phase, shared by every
    # record of the phase; then a copy of the first, equal but another
    # object, and its signed-zero twin.
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
    # An int value and latent evidence: these records stay whole.
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
@example(_look_alike_records())
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
    line = _trace_of(_plan_records()).to_jsonl().splitlines()[0]
    params = json.loads(line)["action"]["params"]
    assert list(params) == [str(k) for k in range(12)]
    assert '"params":{"0":0.0,"1":1.0,' in line and ',"10":0.0,"11":1.0}' in line


def test_compact_records_keep_no_per_step_object():
    trace = Trace()
    plain = _record(0)
    evidence = Observation({"error": 0.0}, (LatentEvidence("compliance", 1.0, 0.5),))
    launch = TraceRecord(1, evidence, NOOP, OptionChoice(OptionKind.LAUNCH), False)
    for record in (plain, launch):
        _append(trace, record)
    refs = [weakref.ref(r.observation) for r in (plain, launch)]
    del plain, launch, evidence
    # The float-only record was taken apart; the one with latent evidence
    # is kept whole.
    assert [ref() is None for ref in refs] == [True, False]
    # A family B cell: every record carries a landmark snapshot, and none
    # is kept whole.
    trace = _family_b_trace()
    assert len(trace) > 0 and trace._whole == []
    assert len(trace._snapshots) == 2


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
    for snapshot in reused + reused:
        record = TraceRecord(len(records), Observation({"phase": 1.0}, landmarks=snapshot),
                             NOOP, OptionChoice(OptionKind.CACHE), False)
        _append(restored, record)
        records.append(record)
    assert len(restored._snapshots) == 2 + len(reused)
    assert restored.to_jsonl() == "".join(r.to_json_line() + "\n" for r in records)
