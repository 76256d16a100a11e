"""Delayed, noisy pass/fail checks of ground truth.

Each family computes a check's ground truth itself, as a bool over the steps
the check covers. A verifier flips that truth with its false-positive or
false-negative probability, using the dedicated verifier-noise stream, and
emits the result no earlier than the end of the covered steps. Signals carry
both the (possibly flipped) verdict the agent may see and the ground-truth
verdict, which exists for offline metric computation only: agent-facing code
receives `AgentSignal` views with the ground truth stripped. Every check
yields a signal; a verifier has no blind spot other than its noise.

Placement is the in-loop vs end-only ablation: a run sends every check to a
`SignalSink`, which evaluates it at once or queues it until the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core.state import ConfigurationError, InputError
from .rng import Substream


class Placement(str, Enum):
    IN_LOOP = "in_loop"
    END_ONLY = "end_only"


@dataclass(frozen=True)
class VerifierSpec:
    """One checker: which predicate it reports on, how noisy and how late."""

    predicate_id: str
    fp_rate: float = 0.0
    fn_rate: float = 0.0
    delay: int = 0

    def __post_init__(self):
        if not (0.0 <= self.fp_rate < 1.0 and 0.0 <= self.fn_rate < 1.0):
            raise ConfigurationError("fp and fn rates must lie in [0, 1)")
        if self.fp_rate + self.fn_rate >= 1.0:
            raise ConfigurationError(
                "fp_rate + fn_rate must stay below 1 (verifier must be informative)"
            )
        if self.delay < 0:
            raise ConfigurationError("delay must be non-negative")


@dataclass(frozen=True)
class AgentSignal:
    """What the agent is allowed to see of a verifier signal."""

    emitted_at: int
    segment_start: int
    segment_end: int
    verdict: bool
    predicate_id: str


@dataclass(frozen=True)
class VerifierSignal:
    """Full signal, including ground truth. Report-side only."""

    emitted_at: int
    segment_start: int
    segment_end: int
    verdict: bool
    ground_truth_verdict: bool
    predicate_id: str

    def __post_init__(self):
        if self.emitted_at < self.segment_end:
            raise InputError("signal emitted before its segment completed")

    def agent_view(self) -> AgentSignal:
        return AgentSignal(
            self.emitted_at,
            self.segment_start,
            self.segment_end,
            self.verdict,
            self.predicate_id,
        )

    def to_json_obj(self) -> dict:
        return {
            "emitted_at": self.emitted_at,
            "segment": [self.segment_start, self.segment_end],
            "verdict": self.verdict,
            "ground_truth_verdict": self.ground_truth_verdict,
            "predicate_id": self.predicate_id,
        }


def evaluate(
    spec: VerifierSpec,
    start: int,
    end: int,
    truth: bool,
    noise_stream: Substream,
    emitted_at: int | None = None,
) -> VerifierSignal:
    """Check the ground truth `truth` of steps `start`..`end`.

    `emitted_at` defaults to segment end plus the spec's delay; an end-only
    flush passes its flush time instead (never earlier than the natural
    emission time). One noise draw is consumed per evaluation regardless of
    the configured rates, so noise settings do not shift the stream.
    """
    natural = end + spec.delay
    when = natural if emitted_at is None else max(int(emitted_at), natural)
    ground = bool(truth)
    u = float(noise_stream.random())
    verdict = ground
    if ground and u < spec.fp_rate:
        verdict = False
    elif not ground and u < spec.fn_rate:
        verdict = True
    return VerifierSignal(when, start, end, verdict, ground, spec.predicate_id)


class SignalSink:
    """Where a run's verifier checks go, and the one owner of its placement.

    In-loop, `check` evaluates at once: the signal is emitted at segment end
    plus the verifier's delay and is returned, so the run can deliver it to
    the agent. End-only, `check` queues the check and returns None, and
    `flush()` evaluates the queue in order and emits every signal at the
    latest natural time in the queue, the maximum of segment end + delay:
    the time the last in-loop signal would have arrived. Checks are evaluated
    in the order they were made under either placement, so the noise stream
    is drawn identically and only emission times differ.
    """

    def __init__(self, placement: Placement | str, noise_stream: Substream):
        self.in_loop = Placement(placement) is Placement.IN_LOOP
        self.noise_stream = noise_stream
        self.signals: list[VerifierSignal] = []
        self._queue: list[tuple[VerifierSpec, int, int, bool]] = []

    def check(
        self, spec: VerifierSpec, start: int, end: int, truth: bool
    ) -> VerifierSignal | None:
        if not self.in_loop:
            self._queue.append((spec, start, end, truth))
            return None
        signal = evaluate(spec, start, end, truth, self.noise_stream)
        self.signals.append(signal)
        return signal

    def flush(self) -> None:
        if not self._queue:
            return
        at = max(end + spec.delay for spec, _, end, _ in self._queue)
        for spec, start, end, truth in self._queue:
            self.signals.append(
                evaluate(spec, start, end, truth, self.noise_stream, emitted_at=at)
            )
        self._queue.clear()

    def goal_verdict(self, predicate_id: str) -> int:
        """1 when every signal of the predicate passed, else 0, also when
        there is none."""
        verdicts = [s.verdict for s in self.signals if s.predicate_id == predicate_id]
        return int(all(verdicts)) if verdicts else 0


def miss_rate(signals: list[VerifierSignal], deadline: int) -> float:
    """The fraction of ground-truth failures whose signal was emitted after
    `deadline`, too late to act on; 0.0 when no check failed."""
    failures = [s for s in signals if not s.ground_truth_verdict]
    if not failures:
        return 0.0
    return sum(s.emitted_at > deadline for s in failures) / len(failures)
