import pytest

from hoardbench import verifier
from hoardbench.core.state import ConfigurationError
from hoardbench.envs import FAMILIES
from hoardbench.errors import InputError
from hoardbench.ledger import CostLedger
from hoardbench.rng import Substream
from hoardbench.verifier import SignalSink, evaluate, miss_rate


# A signal's keys, in the order runs.jsonl writes them.
SIGNAL_KEYS = ["emitted_at", "segment", "verdict", "ground_truth_verdict", "predicate_id"]


def _stream():
    return Substream(0, "verifier")


def test_noiseless_verdict_matches_ground_truth():
    sink = SignalSink(_stream())
    sig = sink.check("p", 0, 10, True)
    assert sig["verdict"] is True and sig["ground_truth_verdict"] is True
    sig = sink.check("p", 0, 10, False)
    assert sig["verdict"] is False and sig["ground_truth_verdict"] is False


def test_uninformative_noise_rates_rejected():
    for key, rates in (
        ("fp_rate", {"fp_rate": 0.5, "fn_rate": 0.5}),
        ("fn_rate", {"fn_rate": 1.0}),
        ("fp_rate", {"fp_rate": -0.1}),
        ("fn_rate", {"fn_rate": float("nan")}),
    ):
        with pytest.raises(ConfigurationError, match=key):
            SignalSink(_stream(), **rates)


def test_emission_respects_delay():
    sig = SignalSink(_stream(), delay=7).check("p", 3, 12, True)
    assert sig["emitted_at"] == 12 + 7


def test_evaluate_returns_the_runs_jsonl_signal_object():
    sig = evaluate("p", 3, 9, 1, _stream(), 0.0, 0.0, 9)
    assert list(sig) == SIGNAL_KEYS
    assert sig == {"emitted_at": 9, "segment": [3, 9], "verdict": True,
                   "ground_truth_verdict": True, "predicate_id": "p"}
    assert [type(v) for v in sig.values()] == [int, list, bool, bool, str]
    assert [type(v) for v in sig["segment"]] == [int, int]


def test_signal_cannot_precede_segment_end():
    with pytest.raises(InputError, match="before its segment completed"):
        evaluate("p", 0, 9, True, _stream(), 0.0, 0.0, 5)


def test_fp_rate_calibration_binomial():
    # 10^4 true-pass evaluations at fp=0.1: the flipped fraction must land
    # within the 3-sigma binomial band 0.1 +/- 0.009.
    sink = SignalSink(_stream(), fp_rate=0.1)
    n = 10_000
    flips = sum(sink.check("p", k, k, True)["verdict"] is False for k in range(n))
    assert abs(flips / n - 0.1) <= 0.01


def test_fn_rate_calibration_binomial():
    sink = SignalSink(_stream(), fn_rate=0.2)
    flips = sum(sink.check("p", k, k, False)["verdict"] is True for k in range(10_000))
    assert abs(flips / 10_000 - 0.2) <= 0.012  # 3 sigma


SEGMENTS = [(0, 4, True), (5, 9, True), (10, 14, False), (15, 19, True), (20, 24, False)]


def _sink_run(end_only, **config):
    """Send SEGMENTS through a sink; return what `check` returned and the
    signals after the flush."""
    sink = SignalSink(Substream(33, "verifier"), end_only=end_only, **config)
    returned = [sink.check("p", start, end, ok) for start, end, ok in SEGMENTS]
    sink.flush()
    return returned, sink.signals


def test_placement_changes_timing_not_truth():
    # Same checks, same seed: both placements draw the noise stream in the
    # same order, so verdicts and ground truths agree signal by signal.
    returned, in_loop = _sink_run(False, fp_rate=0.3, fn_rate=0.3)
    queued, end_only = _sink_run(True, fp_rate=0.3, fn_rate=0.3)
    assert returned == in_loop and queued == [None] * len(SEGMENTS)
    assert [s["predicate_id"] for s in end_only] == ["p"] * len(SEGMENTS)
    assert [s["segment"] for s in in_loop] == [s["segment"] for s in end_only] == [
        [start, end] for start, end, _ in SEGMENTS
    ]
    assert [s["verdict"] for s in in_loop] == [s["verdict"] for s in end_only]
    assert [s["ground_truth_verdict"] for s in in_loop] == [
        s["ground_truth_verdict"] for s in end_only
    ]
    assert [s["ground_truth_verdict"] for s in end_only] == [ok for _, _, ok in SEGMENTS]
    # The noise flips some verdicts, so the agreement is not just truth.
    assert [s["verdict"] for s in in_loop] != [ok for _, _, ok in SEGMENTS]


def test_end_only_emits_every_signal_at_the_latest_natural_time():
    # Natural (in-loop) emission times are segment end + delay: 4, 9, 14,
    # 19, 24 plus the delay. End-only, every signal waits for the last.
    for delay in (0, 3):
        _, in_loop = _sink_run(False, delay=delay)
        _, end_only = _sink_run(True, delay=delay)
        natural = [end + delay for _, end, _ in SEGMENTS]
        assert [s["emitted_at"] for s in in_loop] == natural
        assert [s["emitted_at"] for s in end_only] == [max(natural)] * len(SEGMENTS)


def test_end_only_flush_time_is_the_latest_queued_end():
    # Queued out of order: the flush time is the largest end, not the last.
    sink = SignalSink(_stream(), delay=2, end_only=True)
    for start, end in ((0, 9), (3, 4), (5, 6)):
        sink.check("p", start, end, True)
    sink.flush()
    assert [s["emitted_at"] for s in sink.signals] == [11, 11, 11]
    sink.flush()  # the queue is empty now
    assert len(sink.signals) == 3


@pytest.mark.parametrize("end_only", [False, True])
def test_every_check_calls_evaluate_once(monkeypatch, end_only):
    # perfbench times the module-level `evaluate`, so the sink must reach it
    # through the module global, once per check, under either placement.
    calls = []
    original = verifier.evaluate

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(verifier, "evaluate", counting)
    returned, signals = _sink_run(end_only, fp_rate=0.1)
    assert calls == ["p"] * len(SEGMENTS)
    assert len(signals) == len(SEGMENTS)
    assert returned == (signals if not end_only else [None] * len(SEGMENTS))


def test_goal_verdict_needs_every_signal_passed():
    sink = SignalSink(_stream())
    assert sink.goal_verdict("p") == 0
    sink.check("p", 0, 1, True)
    sink.check("other", 0, 1, False)
    assert sink.goal_verdict("p") == 1
    sink.check("p", 2, 3, True)
    assert sink.goal_verdict("p") == 1
    sink.check("p", 4, 5, False)
    assert sink.goal_verdict("p") == 0


def _signal(emitted_at, step, ok):
    return evaluate("p", step, step, ok, _stream(), 0.0, 0.0, emitted_at)


def test_miss_rate_with_deadline():
    early = _signal(6, 5, False)
    late = _signal(50, 7, False)
    passed_late = _signal(60, 8, True)
    assert miss_rate([early, late, passed_late], deadline=10) == pytest.approx(0.5)
    assert miss_rate([passed_late], deadline=10) == 0.0
    assert miss_rate([], deadline=10) == 0.0


@pytest.mark.parametrize("family, env", [
    ("A", {"trials": 2, "horizon": 20}),
    ("B", {"n_events": 16}),
    ("C", {"caches": 3}),
    ("D", {"n_constraints": 8}),
])
def test_every_record_signal_has_the_runs_jsonl_key_order(family, env):
    # runs.jsonl writes each signal dict as it is, so its bytes follow the
    # dict's insertion order.
    entry = FAMILIES[family]
    record = entry.run(entry.env_config(**env), dict(entry.agent), CostLedger(), 0, None)
    assert record.signals
    assert all(list(s) == SIGNAL_KEYS for s in record.signals)
