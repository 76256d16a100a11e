import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoardbench.controller import ControllerConfig
from hoardbench.core.state import ConfigurationError, TraceSegment
from hoardbench.envs.family_a import FamilyAConfig, run_family_a
from hoardbench.envs.family_b import FamilyBConfig, run_family_b
from hoardbench.ledger import CostLedger
from hoardbench.rng import Substream
from hoardbench.verifier import (
    SignalSink,
    VerifierKind,
    VerifierSignal,
    VerifierSpec,
    evaluate,
    score_verifier,
)

REGISTRY = {
    "always_pass": lambda seg, truth: True,
    "always_fail": lambda seg, truth: False,
    "from_truth": lambda seg, truth: bool(truth["ok"]),
}


def _spec(**kw):
    defaults = dict(kind=VerifierKind.POSTCONDITION, predicate_id="from_truth")
    defaults.update(kw)
    return VerifierSpec(**defaults)


def _stream():
    return Substream(0, "verifier")


def test_noiseless_verdict_matches_ground_truth():
    sig = evaluate(_spec(), TraceSegment(0, 10), {"ok": True}, _stream(), REGISTRY)
    assert sig.verdict is True and sig.ground_truth_verdict is True
    sig = evaluate(_spec(), TraceSegment(0, 10), {"ok": False}, _stream(), REGISTRY)
    assert sig.verdict is False and sig.ground_truth_verdict is False


def test_uninformative_noise_rates_rejected():
    with pytest.raises(ConfigurationError):
        _spec(fp_rate=0.5, fn_rate=0.5)
    with pytest.raises(ConfigurationError):
        _spec(fn_rate=1.0)


def test_emission_respects_delay():
    spec = _spec(delay=7)
    sig = evaluate(spec, TraceSegment(3, 12), {"ok": True}, _stream(), REGISTRY)
    assert sig.emitted_at == 12 + 7


def test_signal_cannot_precede_segment_end():
    with pytest.raises(Exception):
        VerifierSignal(5, 0, 9, True, True, "p")


def test_fp_rate_calibration_binomial():
    # 10^4 true-pass evaluations at fp=0.1: the flipped fraction must land
    # within the 3-sigma binomial band 0.1 +/- 0.009.
    spec = _spec(predicate_id="always_pass", fp_rate=0.1)
    stream = _stream()
    flips = 0
    n = 10_000
    for k in range(n):
        sig = evaluate(spec, TraceSegment(k, k), {}, stream, REGISTRY)
        flips += sig.verdict is False
    assert abs(flips / n - 0.1) <= 0.01


def test_fn_rate_calibration_binomial():
    spec = _spec(predicate_id="always_fail", fn_rate=0.2)
    stream = _stream()
    flips = sum(
        evaluate(spec, TraceSegment(k, k), {}, stream, REGISTRY).verdict is True
        for k in range(10_000)
    )
    assert abs(flips / 10_000 - 0.2) <= 0.012  # 3 sigma


def test_coverage_hole_withholds_signal():
    spec = _spec(coverage=frozenset({"something_else"}))
    sig = evaluate(spec, TraceSegment(0, 5), {"ok": False}, _stream(), REGISTRY)
    assert sig.withheld and sig.verdict is None
    assert sig.ground_truth_verdict is False
    assert sig.agent_view() is None


SEGMENTS = [(0, 4, True), (5, 9, True), (10, 14, False), (15, 19, True), (20, 24, False)]


def _sink_run(placement, spec, flush_at):
    """Send SEGMENTS through a sink; return what `check` returned and the
    signals after the flush."""
    sink = SignalSink(placement, Substream(33, "verifier"), REGISTRY)
    returned = [sink.check(spec, start, end, {"ok": ok}) for start, end, ok in SEGMENTS]
    sink.flush(flush_at)
    return returned, sink.signals


def test_placement_changes_timing_not_truth():
    # Same checks, same seed: both placements draw the noise stream in the
    # same order, so verdicts and ground truths agree signal by signal.
    spec = _spec(fp_rate=0.3, fn_rate=0.3)
    returned, in_loop = _sink_run("in_loop", spec, 30)
    queued, end_only = _sink_run("end_only", spec, 30)
    assert returned == in_loop and queued == [None] * len(SEGMENTS)
    assert [s.verdict for s in in_loop] == [s.verdict for s in end_only]
    assert [s.ground_truth_verdict for s in in_loop] == [s.ground_truth_verdict for s in end_only]
    assert [s.ground_truth_verdict for s in end_only] == [ok for _, _, ok in SEGMENTS]
    # The noise flips some verdicts, so the agreement is not just truth.
    assert [s.verdict for s in in_loop] != [ok for _, _, ok in SEGMENTS]


def test_end_only_emits_at_flush_or_natural_time():
    # Flush times before, among and after the natural emission times
    # (segment end + delay: 7, 12, 17, 22, 27).
    spec = _spec(delay=3)
    for flush_at in (0, 10, 19, 100):
        _, signals = _sink_run("end_only", spec, flush_at)
        assert [s.emitted_at for s in signals] == [
            max(flush_at, end + spec.delay) for _, end, _ in SEGMENTS
        ]
        _, in_loop = _sink_run("in_loop", spec, flush_at)
        assert [s.emitted_at for s in in_loop] == [end + spec.delay for _, end, _ in SEGMENTS]


def test_goal_verdict_needs_every_signal_passed():
    sink = SignalSink("in_loop", _stream(), REGISTRY)
    assert sink.goal_verdict("from_truth") == 0
    sink.check(_spec(), 0, 1, {"ok": True})
    sink.check(_spec(predicate_id="always_fail"), 0, 1, {})
    assert sink.goal_verdict("from_truth") == 1
    sink.check(_spec(), 2, 3, {"ok": True})
    assert sink.goal_verdict("from_truth") == 1
    sink.check(_spec(), 4, 5, {"ok": False})
    assert sink.goal_verdict("from_truth") == 0
    withheld = SignalSink("in_loop", _stream(), REGISTRY)
    withheld.check(_spec(coverage=frozenset({"other"})), 0, 1, {"ok": True})
    assert withheld.goal_verdict("from_truth") == 0


def _without_emission_times(record):
    obj = json.loads(record.to_json_line())
    for signal in obj["signals"]:
        del signal["emitted_at"]
    return obj


def _family_a(seed, placement):
    env = FamilyAConfig(trials=3, horizon=40, verifier_fp=0.2, verifier_fn=0.2)
    return run_family_a(env, ControllerConfig(), CostLedger(), seed, placement)


def _family_b(seed, placement):
    env = FamilyBConfig(n_events=300, landmark_drift=0.02, verifier_fp=0.2, verifier_fn=0.2)
    return run_family_b(env, "clustered", CostLedger(), seed, placement)


@pytest.mark.parametrize("run", [_family_a, _family_b])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_placement_moves_only_emission_times(run, seed):
    in_loop = run(seed, "in_loop")
    end_only = run(seed, "end_only")
    assert [s["emitted_at"] for s in in_loop.signals] != [
        s["emitted_at"] for s in end_only.signals
    ]
    assert _without_emission_times(in_loop) == _without_emission_times(end_only)


def test_score_verifier_all_correct():
    stream = _stream()
    signals = [
        evaluate(_spec(), TraceSegment(k, k), {"ok": k % 2 == 0}, stream, REGISTRY)
        for k in range(50)
    ]
    m = score_verifier(signals)
    assert m.fp_rate == 0.0 and m.fn_rate == 0.0 and m.miss_rate == 0.0
    assert m.samples == 50


def test_score_verifier_counts_injected_flips_exactly():
    # Constructed fixture: 100 signals, 4 false positives and 3 false
    # negatives injected by hand.
    signals = []
    for k in range(50):  # ground truth pass
        verdict = False if k < 4 else True
        signals.append(VerifierSignal(k, k, k, verdict, True, "p"))
    for k in range(50):  # ground truth fail
        verdict = True if k < 3 else False
        signals.append(VerifierSignal(100 + k, 100 + k, 100 + k, verdict, False, "p"))
    m = score_verifier(signals)
    assert m.fp_rate == pytest.approx(4 / 50)
    assert m.fn_rate == pytest.approx(3 / 50)
    assert m.miss_rate == 0.0


def test_miss_rate_counts_coverage_withholding():
    spec = _spec(coverage=frozenset({"other"}))
    sig = evaluate(spec, TraceSegment(0, 0), {"ok": False}, _stream(), REGISTRY)
    m = score_verifier([sig])
    assert m.miss_rate == 1.0


def test_miss_rate_with_deadline():
    early = VerifierSignal(6, 5, 5, False, False, "p")
    late = VerifierSignal(50, 7, 7, False, False, "p")
    m = score_verifier([early, late], deadline=10)
    assert m.miss_rate == pytest.approx(0.5)
    assert m.mean_detection_latency == pytest.approx(((6 - 5) + (50 - 7)) / 2)


def test_empty_signal_set_scores_zero():
    m = score_verifier([])
    assert m.samples == 0 and m.fp_rate == 0.0
