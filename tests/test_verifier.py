import pytest

from hoardbench.core.state import ConfigurationError
from hoardbench.rng import Substream
from hoardbench.verifier import SignalSink, VerifierSignal, VerifierSpec, evaluate, miss_rate


def _spec(**kw):
    defaults = dict(predicate_id="p")
    defaults.update(kw)
    return VerifierSpec(**defaults)


def _stream():
    return Substream(0, "verifier")


def test_noiseless_verdict_matches_ground_truth():
    sig = evaluate(_spec(), 0, 10, True, _stream())
    assert sig.verdict is True and sig.ground_truth_verdict is True
    sig = evaluate(_spec(), 0, 10, False, _stream())
    assert sig.verdict is False and sig.ground_truth_verdict is False


def test_uninformative_noise_rates_rejected():
    with pytest.raises(ConfigurationError):
        _spec(fp_rate=0.5, fn_rate=0.5)
    with pytest.raises(ConfigurationError):
        _spec(fn_rate=1.0)


def test_emission_respects_delay():
    spec = _spec(delay=7)
    sig = evaluate(spec, 3, 12, True, _stream())
    assert sig.emitted_at == 12 + 7


def test_signal_cannot_precede_segment_end():
    with pytest.raises(Exception):
        VerifierSignal(5, 0, 9, True, True, "p")


def test_fp_rate_calibration_binomial():
    # 10^4 true-pass evaluations at fp=0.1: the flipped fraction must land
    # within the 3-sigma binomial band 0.1 +/- 0.009.
    spec = _spec(fp_rate=0.1)
    stream = _stream()
    flips = 0
    n = 10_000
    for k in range(n):
        sig = evaluate(spec, k, k, True, stream)
        flips += sig.verdict is False
    assert abs(flips / n - 0.1) <= 0.01


def test_fn_rate_calibration_binomial():
    spec = _spec(fn_rate=0.2)
    stream = _stream()
    flips = sum(
        evaluate(spec, k, k, False, stream).verdict is True
        for k in range(10_000)
    )
    assert abs(flips / 10_000 - 0.2) <= 0.012  # 3 sigma


SEGMENTS = [(0, 4, True), (5, 9, True), (10, 14, False), (15, 19, True), (20, 24, False)]


def _sink_run(placement, spec):
    """Send SEGMENTS through a sink; return what `check` returned and the
    signals after the flush."""
    sink = SignalSink(placement, Substream(33, "verifier"))
    returned = [sink.check(spec, start, end, ok) for start, end, ok in SEGMENTS]
    sink.flush()
    return returned, sink.signals


def test_placement_changes_timing_not_truth():
    # Same checks, same seed: both placements draw the noise stream in the
    # same order, so verdicts and ground truths agree signal by signal.
    spec = _spec(fp_rate=0.3, fn_rate=0.3)
    returned, in_loop = _sink_run("in_loop", spec)
    queued, end_only = _sink_run("end_only", spec)
    assert returned == in_loop and queued == [None] * len(SEGMENTS)
    assert [s.verdict for s in in_loop] == [s.verdict for s in end_only]
    assert [s.ground_truth_verdict for s in in_loop] == [s.ground_truth_verdict for s in end_only]
    assert [s.ground_truth_verdict for s in end_only] == [ok for _, _, ok in SEGMENTS]
    # The noise flips some verdicts, so the agreement is not just truth.
    assert [s.verdict for s in in_loop] != [ok for _, _, ok in SEGMENTS]


def test_end_only_emits_every_signal_at_the_latest_natural_time():
    # Natural emission times are segment end + delay. With one delay they
    # are 7, 12, 17, 22, 27; with the delays below, 5, 16, 14, 27, 25.
    for delays in ((3,) * 5, (1, 7, 0, 8, 1)):
        specs = [_spec(delay=d) for d in delays]
        natural = [end + d for (_, end, _), d in zip(SEGMENTS, delays)]
        in_loop = SignalSink("in_loop", _stream())
        end_only = SignalSink("end_only", _stream())
        for spec, (start, end, ok) in zip(specs, SEGMENTS):
            in_loop.check(spec, start, end, ok)
            end_only.check(spec, start, end, ok)
        in_loop.flush()  # an in-loop sink's queue is empty
        end_only.flush()
        assert [s.emitted_at for s in in_loop.signals] == natural
        assert [s.emitted_at for s in end_only.signals] == [max(natural)] * len(SEGMENTS)


def test_goal_verdict_needs_every_signal_passed():
    sink = SignalSink("in_loop", _stream())
    assert sink.goal_verdict("p") == 0
    sink.check(_spec(), 0, 1, True)
    sink.check(_spec(predicate_id="other"), 0, 1, False)
    assert sink.goal_verdict("p") == 1
    sink.check(_spec(), 2, 3, True)
    assert sink.goal_verdict("p") == 1
    sink.check(_spec(), 4, 5, False)
    assert sink.goal_verdict("p") == 0


def test_miss_rate_with_deadline():
    early = VerifierSignal(6, 5, 5, False, False, "p")
    late = VerifierSignal(50, 7, 7, False, False, "p")
    passed_late = VerifierSignal(60, 8, 8, True, True, "p")
    assert miss_rate([early, late, passed_late], deadline=10) == pytest.approx(0.5)
    assert miss_rate([passed_late], deadline=10) == 0.0
    assert miss_rate([], deadline=10) == 0.0
