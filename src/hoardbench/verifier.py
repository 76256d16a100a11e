"""Delayed, noisy pass/fail checks over executed trace segments.

A verifier evaluates a registered predicate against ground truth, then flips
the verdict with its false-positive or false-negative probability using the
dedicated verifier-noise stream. Signals carry both the (possibly flipped)
verdict the agent may see and the ground-truth verdict, which exists for
offline metric computation only: agent-facing code receives `AgentSignal`
views with the ground truth stripped.

Coverage is explicit: a verifier asked about a predicate outside its
coverage set withholds its signal. That is a modelled blind spot, never an
error.

Placement is the in-loop vs end-only ablation: a run sends every check to a
`SignalSink`, which evaluates it at once or queues it until the run's own
flush time. The sink's docstring lists each family's flush time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .core.state import ConfigurationError, InputError, TraceSegment
from .rng import Substream

# Predicates are pure: (segment, environment ground truth) -> satisfied?
Predicate = Callable[[TraceSegment, object], bool]


class VerifierKind(str, Enum):
    PRECONDITION = "precondition"
    RUNTIME_MONITOR = "runtime_monitor"
    POSTCONDITION = "postcondition"


class Placement(str, Enum):
    IN_LOOP = "in_loop"
    END_ONLY = "end_only"


@dataclass(frozen=True)
class VerifierSpec:
    """One checker: which predicate, how noisy, how late, and what it can see."""

    kind: VerifierKind
    predicate_id: str
    fp_rate: float = 0.0
    fn_rate: float = 0.0
    delay: int = 0
    coverage: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if not (0.0 <= self.fp_rate < 1.0 and 0.0 <= self.fn_rate < 1.0):
            raise ConfigurationError("fp and fn rates must lie in [0, 1)")
        if self.fp_rate + self.fn_rate >= 1.0:
            raise ConfigurationError(
                "fp_rate + fn_rate must stay below 1 (verifier must be informative)"
            )
        if self.delay < 0:
            raise ConfigurationError("delay must be non-negative")
        if not self.coverage:
            object.__setattr__(self, "coverage", frozenset({self.predicate_id}))


@dataclass(frozen=True)
class AgentSignal:
    """What the agent is allowed to see of a verifier signal."""

    emitted_at: int
    segment_start: int
    segment_end: int
    verdict: bool
    predicate_id: str
    target: int | None = None


@dataclass(frozen=True)
class VerifierSignal:
    """Full signal, including ground truth. Report-side only."""

    emitted_at: int
    segment_start: int
    segment_end: int
    verdict: bool | None
    ground_truth_verdict: bool
    predicate_id: str
    target: int | None = None
    withheld: bool = False

    def __post_init__(self):
        if not self.withheld and self.emitted_at < self.segment_end:
            raise InputError("signal emitted before its segment completed")

    def agent_view(self) -> AgentSignal | None:
        if self.withheld or self.verdict is None:
            return None
        return AgentSignal(
            self.emitted_at,
            self.segment_start,
            self.segment_end,
            self.verdict,
            self.predicate_id,
            self.target,
        )

    def to_json_obj(self) -> dict:
        return {
            "emitted_at": self.emitted_at,
            "segment": [self.segment_start, self.segment_end],
            "verdict": self.verdict,
            "ground_truth_verdict": self.ground_truth_verdict,
            "predicate_id": self.predicate_id,
            "target": self.target,
            "withheld": self.withheld,
        }


def evaluate(
    spec: VerifierSpec,
    segment: TraceSegment,
    env_truth: object,
    noise_stream: Substream,
    registry: dict[str, Predicate],
    target: int | None = None,
    emitted_at: int | None = None,
) -> VerifierSignal:
    """Run one check over a completed segment.

    `emitted_at` defaults to segment end plus the spec's delay; an end-only
    flush passes its flush time instead (never earlier than the natural
    emission time). One noise draw is consumed per evaluation regardless of
    the configured rates, so noise settings do not shift the stream.
    """
    if spec.predicate_id not in registry:
        raise ConfigurationError(f"predicate {spec.predicate_id!r} not registered")
    natural = segment.end + spec.delay
    when = natural if emitted_at is None else max(int(emitted_at), natural)

    if spec.predicate_id not in spec.coverage:
        ground = bool(registry[spec.predicate_id](segment, env_truth))
        return VerifierSignal(
            when, segment.start, segment.end, None, ground, spec.predicate_id,
            target, withheld=True,
        )

    ground = bool(registry[spec.predicate_id](segment, env_truth))
    u = float(noise_stream.random())
    verdict = ground
    if ground and u < spec.fp_rate:
        verdict = False
    elif not ground and u < spec.fn_rate:
        verdict = True
    return VerifierSignal(
        when, segment.start, segment.end, verdict, ground, spec.predicate_id, target
    )


class SignalSink:
    """Where a run's verifier checks go, and the one owner of its placement.

    In-loop, `check` evaluates at once: the signal is emitted at segment end
    plus the verifier's delay and is returned, so the run can deliver it to
    the agent. End-only, `check` queues the check and returns None, and
    `flush(emitted_at)` evaluates the queue in order, emitting each signal
    at `max(emitted_at, segment end + delay)`. Checks are evaluated in the
    order they were made under either placement, so the noise stream is
    drawn identically and only emission times differ.

    Each family flushes at its own time:

    - A: the planned last step, `trials * (horizon + 1) - 1`, even when the
      budget ends the run early;
    - B: the last query step plus `verifier_delay`;
    - C: the last recovery step plus `monitor_delay`;
    - D: never; its checks always run in-loop. Its goal check has delay 0
      over a segment ending at the current step, so an end-only flush at
      that step would change nothing.
    """

    def __init__(
        self,
        placement: Placement | str,
        noise_stream: Substream,
        predicates: dict[str, Predicate],
    ):
        self.in_loop = Placement(placement) is Placement.IN_LOOP
        self.noise_stream = noise_stream
        self.predicates = predicates
        self.signals: list[VerifierSignal] = []
        self._queue: list[tuple[VerifierSpec, int, int, object]] = []

    def check(
        self, spec: VerifierSpec, start: int, end: int, truth: object
    ) -> VerifierSignal | None:
        if not self.in_loop:
            self._queue.append((spec, start, end, truth))
            return None
        signal = evaluate(
            spec, TraceSegment(start, end), truth, self.noise_stream, self.predicates
        )
        self.signals.append(signal)
        return signal

    def flush(self, emitted_at: int) -> None:
        for spec, start, end, truth in self._queue:
            self.signals.append(
                evaluate(
                    spec, TraceSegment(start, end), truth, self.noise_stream,
                    self.predicates, emitted_at=emitted_at,
                )
            )
        self._queue.clear()

    def goal_verdict(self, predicate_id: str) -> int:
        """1 when every signal of the predicate passed (a withheld signal has
        not), else 0, also when there is none."""
        verdicts = [s.verdict for s in self.signals if s.predicate_id == predicate_id]
        return int(all(verdicts)) if verdicts else 0


@dataclass(frozen=True)
class VerifierMetrics:
    fp_rate: float
    fn_rate: float
    miss_rate: float
    mean_detection_latency: float
    samples: int


def score_verifier(
    signals: list[VerifierSignal], deadline: int | None = None
) -> VerifierMetrics:
    """Empirical error profile of a signal set.

    FP and FN rates are computed over emitted signals. The miss rate is the
    fraction of ground-truth failures that produced no emitted signal
    (coverage withholding), or, when a `deadline` is given, no signal early
    enough to act on. Detection latency averages emission minus segment end
    over correctly detected failures.
    """
    if not signals:
        return VerifierMetrics(0.0, 0.0, 0.0, 0.0, 0)
    emitted = [s for s in signals if not s.withheld]
    true_pass = [s for s in emitted if s.ground_truth_verdict]
    true_fail = [s for s in emitted if not s.ground_truth_verdict]
    fp = sum(1 for s in true_pass if s.verdict is False) / len(true_pass) if true_pass else 0.0
    fn = sum(1 for s in true_fail if s.verdict is True) / len(true_fail) if true_fail else 0.0

    all_fail = [s for s in signals if not s.ground_truth_verdict]
    missed = 0
    for s in all_fail:
        if s.withheld:
            missed += 1
        elif deadline is not None and s.emitted_at > deadline:
            missed += 1
    miss = missed / len(all_fail) if all_fail else 0.0

    detected = [s for s in true_fail if s.verdict is False]
    latency = (
        sum(s.emitted_at - s.segment_end for s in detected) / len(detected)
        if detected
        else 0.0
    )
    return VerifierMetrics(fp, fn, miss, latency, len(signals))
