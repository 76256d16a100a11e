"""Delayed, noisy pass/fail checks of ground truth.

Each family computes a check's ground truth itself, as a bool over the steps
the check covers. A verifier flips that truth with its false-positive or
false-negative probability, using the dedicated verifier-noise stream, and
emits the result no earlier than the end of the covered steps. Every check
yields a signal; a verifier has no blind spot other than its noise.

A signal is one dict, the object runs.jsonl records, and only `evaluate`
builds one. Its ground-truth verdict is for metrics and reports: an agent
sees only what its family hands it, and family C, whose agent alone reads
signals, hands it the step of each delivered fail verdict.

A `SignalSink` is one verifier: it holds the noise rates, the delay and the
placement, and every check a run sends to it is evaluated at once (in-loop)
or queued until the run ends (end-only). Only C sets `end_only`; the other
families check in-loop.
"""

from __future__ import annotations

from .errors import InputError, check_noise_rates
from .rng import Substream


def evaluate(
    predicate_id: str,
    start: int,
    end: int,
    truth: bool,
    noise_stream: Substream,
    fp_rate: float,
    fn_rate: float,
    emitted_at: int,
) -> dict:
    """Check the ground truth `truth` of steps `start`..`end` and emit the
    result at `emitted_at`, as a signal dict; raises `InputError` when
    `emitted_at` precedes `end`.

    One noise draw is consumed per evaluation regardless of the rates, so
    noise settings do not shift the stream.
    """
    if emitted_at < end:
        raise InputError("signal emitted before its segment completed")
    ground = bool(truth)
    u = float(noise_stream.random())
    verdict = ground
    if ground and u < fp_rate:
        verdict = False
    elif not ground and u < fn_rate:
        verdict = True
    return {
        "emitted_at": emitted_at,
        "segment": [start, end],
        "verdict": verdict,
        "ground_truth_verdict": ground,
        "predicate_id": predicate_id,
    }


class SignalSink:
    """One verifier: its noise rates, its delay and its placement.

    In-loop, `check` evaluates at once: the signal is emitted at segment end
    plus `delay` and is returned, so the run can deliver it to the agent.
    End-only, `check` queues the check and returns None, and `flush()`
    evaluates the queue in order and emits every signal at the latest queued
    segment end plus `delay`: the time the last in-loop signal would have
    arrived. Checks are evaluated in the order they were made under either
    placement, so the noise stream is drawn identically and only emission
    times differ.
    """

    def __init__(
        self,
        noise_stream: Substream,
        fp_rate: float = 0.0,
        fn_rate: float = 0.0,
        delay: int = 0,
        end_only: bool = False,
    ):
        check_noise_rates("fp_rate", fp_rate, "fn_rate", fn_rate)
        self.noise_stream = noise_stream
        self.fp_rate = fp_rate
        self.fn_rate = fn_rate
        self.delay = delay
        self.end_only = end_only
        self.signals: list[dict] = []
        self._queue: list[tuple[str, int, int, bool]] = []

    def check(
        self, predicate_id: str, start: int, end: int, truth: bool
    ) -> dict | None:
        if self.end_only:
            self._queue.append((predicate_id, start, end, truth))
            return None
        signal = evaluate(
            predicate_id, start, end, truth, self.noise_stream,
            self.fp_rate, self.fn_rate, end + self.delay,
        )
        self.signals.append(signal)
        return signal

    def flush(self) -> None:
        if not self._queue:
            return
        at = max(end for _, _, end, _ in self._queue) + self.delay
        for predicate_id, start, end, truth in self._queue:
            self.signals.append(evaluate(
                predicate_id, start, end, truth, self.noise_stream,
                self.fp_rate, self.fn_rate, at,
            ))
        self._queue.clear()

    def goal_verdict(self, predicate_id: str) -> int:
        """1 when every signal of the predicate passed, else 0, also when
        there is none."""
        verdicts = [s["verdict"] for s in self.signals if s["predicate_id"] == predicate_id]
        return int(all(verdicts)) if verdicts else 0


def miss_rate(signals: list[dict], deadline: int) -> float:
    """The fraction of ground-truth failures whose signal was emitted after
    `deadline`, too late to act on; 0.0 when no check failed."""
    failures = [s for s in signals if not s["ground_truth_verdict"]]
    if not failures:
        return 0.0
    return sum(s["emitted_at"] > deadline for s in failures) / len(failures)
