import pytest

from hoardbench import verifier
from hoardbench.core.state import ConfigurationError
from hoardbench.rng import Substream
from hoardbench.verifier import SignalSink, VerifierSignal, miss_rate


def _stream():
    return Substream(0, "verifier")


def test_noiseless_verdict_matches_ground_truth():
    sink = SignalSink(_stream())
    sig = sink.check("p", 0, 10, True)
    assert sig.verdict is True and sig.ground_truth_verdict is True
    sig = sink.check("p", 0, 10, False)
    assert sig.verdict is False and sig.ground_truth_verdict is False


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
    assert sig.emitted_at == 12 + 7


def test_signal_cannot_precede_segment_end():
    with pytest.raises(Exception):
        VerifierSignal(5, 0, 9, True, True, "p")


def test_fp_rate_calibration_binomial():
    # 10^4 true-pass evaluations at fp=0.1: the flipped fraction must land
    # within the 3-sigma binomial band 0.1 +/- 0.009.
    sink = SignalSink(_stream(), fp_rate=0.1)
    n = 10_000
    flips = sum(sink.check("p", k, k, True).verdict is False for k in range(n))
    assert abs(flips / n - 0.1) <= 0.01


def test_fn_rate_calibration_binomial():
    sink = SignalSink(_stream(), fn_rate=0.2)
    flips = sum(sink.check("p", k, k, False).verdict is True for k in range(10_000))
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
    assert [s.predicate_id for s in end_only] == ["p"] * len(SEGMENTS)
    assert [(s.segment_start, s.segment_end) for s in in_loop] == [
        (s.segment_start, s.segment_end) for s in end_only
    ] == [(start, end) for start, end, _ in SEGMENTS]
    assert [s.verdict for s in in_loop] == [s.verdict for s in end_only]
    assert [s.ground_truth_verdict for s in in_loop] == [s.ground_truth_verdict for s in end_only]
    assert [s.ground_truth_verdict for s in end_only] == [ok for _, _, ok in SEGMENTS]
    # The noise flips some verdicts, so the agreement is not just truth.
    assert [s.verdict for s in in_loop] != [ok for _, _, ok in SEGMENTS]


def test_end_only_emits_every_signal_at_the_latest_natural_time():
    # Natural (in-loop) emission times are segment end + delay: 4, 9, 14,
    # 19, 24 plus the delay. End-only, every signal waits for the last.
    for delay in (0, 3):
        _, in_loop = _sink_run(False, delay=delay)
        _, end_only = _sink_run(True, delay=delay)
        natural = [end + delay for _, end, _ in SEGMENTS]
        assert [s.emitted_at for s in in_loop] == natural
        assert [s.emitted_at for s in end_only] == [max(natural)] * len(SEGMENTS)


def test_end_only_flush_time_is_the_latest_queued_end():
    # Queued out of order: the flush time is the largest end, not the last.
    sink = SignalSink(_stream(), delay=2, end_only=True)
    for start, end in ((0, 9), (3, 4), (5, 6)):
        sink.check("p", start, end, True)
    sink.flush()
    assert [s.emitted_at for s in sink.signals] == [11, 11, 11]
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


def test_miss_rate_with_deadline():
    early = VerifierSignal(6, 5, 5, False, False, "p")
    late = VerifierSignal(50, 7, 7, False, False, "p")
    passed_late = VerifierSignal(60, 8, 8, True, True, "p")
    assert miss_rate([early, late, passed_late], deadline=10) == pytest.approx(0.5)
    assert miss_rate([passed_late], deadline=10) == 0.0
    assert miss_rate([], deadline=10) == 0.0
