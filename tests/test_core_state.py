import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoardbench.core.state import (
    Action,
    InputError,
    LatentEvidence,
    LatentParams,
    LatentSpec,
    NOOP,
    Observation,
    OptionChoice,
    OptionKind,
    SchemaError,
    Trace,
    TraceRecord,
    validate_option,
)


def _record(step):
    return TraceRecord(
        step=step,
        observation=Observation({"error": 0.1, "error_rate": 0.0}),
        action=Action("force", {"force": -0.5}),
        option_active=OptionChoice(OptionKind.STABILIZE),
        observed_by_adversary=False,
    )


def test_latent_values_validated_against_ranges():
    spec = LatentSpec(("compliance",), (0.0,), (1.0,))
    LatentParams(spec, (0.5,))
    with pytest.raises(InputError):
        LatentParams(spec, (1.5,))


def test_option_schema_exact_keys():
    ok = OptionChoice(OptionKind.LAUNCH, {"offset": 0.5, "impulse": 0.4})
    validate_option(ok)
    with pytest.raises(SchemaError):
        validate_option(OptionChoice(OptionKind.LAUNCH, {"offset": 0.5}))
    with pytest.raises(SchemaError):
        validate_option(
            OptionChoice(OptionKind.LAUNCH, {"offset": 0.5, "impulse": 0.4, "extra": 1.0})
        )


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
    trace.append(_record(0))
    trace.append(_record(1))
    with pytest.raises(InputError):
        trace.append(_record(3))


def test_trace_json_field_order():
    trace = Trace()
    trace.append(_record(0))
    line = trace.to_jsonl().splitlines()[0]
    keys = list(json.loads(line).keys())
    assert keys == [
        "step",
        "observation",
        "action",
        "option_active",
        "observed_by_adversary",
    ]


def test_segment_bounds():
    trace = Trace()
    for i in range(5):
        trace.append(_record(i))
    seg = trace.segment(1, 3)
    assert seg.start == 1 and seg.end == 3
    assert [r.step for r in seg.records] == [1, 2, 3]


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
    trace = Trace()
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
        trace.append(TraceRecord(step, observation, action, option, draw(st.booleans())))
    return trace


def _signed_zero_trace():
    trace = Trace()
    for step, x in enumerate((0.0, -0.0, 0.0)):
        observation = Observation({"phase": 0.0}, landmarks=((0, x, 0.5), (1, 0.25, 1)))
        option = OptionChoice(OptionKind.STABILIZE)
        trace.append(TraceRecord(step, observation, NOOP, option, False))
    return trace


def _trace_without_landmarks():
    trace = Trace()
    evidence = (LatentEvidence("compliance", -0.1, 0.02),)
    trace.append(TraceRecord(0, Observation({"error": -0.0, "error_rate": 0.0}, evidence),
                             Action("launch", {"offset": 0.5, "impulse": 0.38}),
                             OptionChoice(OptionKind.LAUNCH, {"offset": 0.5, "impulse": 0.38}),
                             False))
    for step in (1, 2):
        trace.append(_record(step))
    return trace


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_traces())
@example(_signed_zero_trace())
@example(_trace_without_landmarks())
def test_json_line_is_byte_identical_to_json_dumps(trace):
    expected = [_reference_line(r) for r in trace.records]
    assert [r.to_json_line() for r in trace.records] == expected
    assert trace.to_jsonl() == "".join(line + "\n" for line in expected)
