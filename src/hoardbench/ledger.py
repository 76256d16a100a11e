"""Cost accounting, the scalar objective, constraint verdicts, and reporting
statistics.

The objective is a weighted sum of four cost channels accrued per step:

    objective = task + lambda_latency * latency + lambda_leak * leak
                + lambda_repair * repair

Compute burden (kappa) is accounted separately against a hard budget; runs
that exhaust it end with a budget-exhausted outcome rather than an error.
The goal-verdict constraint is judged with a Wilson 95% interval on the
empirical success frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import inf

import numpy as np

from .core.state import InputError
from .rng import Substream

WILSON_Z = 1.959963984540054  # two-sided 95%
BOOTSTRAP_RESAMPLES = 2000
_CHANNELS = ("task", "latency", "leak", "repair", "compute")  # `accrue`'s order


@dataclass
class CostLedger:
    """Running per-run cost sums with weights and a compute budget."""

    lambda_latency: float = 0.01
    lambda_leak: float = 1.0
    lambda_repair: float = 0.1
    budget: float = 1e9
    delta: float = 0.1

    task_cost: float = 0.0
    latency_cost: float = 0.0
    leak_cost: float = 0.0
    repair_cost: float = 0.0
    compute_used: float = 0.0
    exhausted: bool = False

    def __post_init__(self):
        if min(self.lambda_latency, self.lambda_leak, self.lambda_repair) < 0:
            raise InputError("cost weights must be non-negative")
        if self.budget <= 0:
            raise InputError("compute budget must be positive")
        if not (0.0 < self.delta < 1.0):
            raise InputError("delta must lie in (0, 1)")


def accrue(
    ledger: CostLedger, task=0.0, latency=0.0, leak=0.0, repair=0.0, compute=0.0
) -> CostLedger:
    """Add one step's costs, each finite and non-negative, or InputError
    names the first channel that is not. Crossing the compute budget marks
    the ledger exhausted (the run loop turns that into a budget-exhausted
    outcome)."""
    # One chained test (NaN fails it, -0.0 passes); only a failure looks
    # for the channel to name.
    if not (0.0 <= task < inf and 0.0 <= latency < inf and 0.0 <= leak < inf
            and 0.0 <= repair < inf and 0.0 <= compute < inf):
        for name, v in zip(_CHANNELS, (task, latency, leak, repair, compute)):
            if not 0.0 <= v < inf:
                raise InputError(f"step cost {name!r}={v} must be finite and >= 0")
    ledger.task_cost += task
    ledger.latency_cost += latency
    ledger.leak_cost += leak
    ledger.repair_cost += repair
    remaining = ledger.budget - ledger.compute_used
    if compute > remaining:
        ledger.compute_used = ledger.budget
        ledger.exhausted = True
    else:
        ledger.compute_used += compute
    return ledger


def objective_value(ledger: CostLedger) -> float:
    return (
        ledger.task_cost
        + ledger.lambda_latency * ledger.latency_cost
        + ledger.lambda_leak * ledger.leak_cost
        + ledger.lambda_repair * ledger.repair_cost
    )


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if total <= 0:
        raise InputError("wilson interval requires at least one outcome")
    z = WILSON_Z
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ConstraintReport:
    successes: int
    total: int
    frequency: float
    ci_low: float
    ci_high: float
    target: float
    verdict: str  # satisfied | violated | inconclusive

    def to_json_obj(self) -> dict:
        return {
            "successes": self.successes,
            "total": self.total,
            "frequency": self.frequency,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "target": self.target,
            "verdict": self.verdict,
        }


def constraint_check(outcomes: list[int], delta: float) -> ConstraintReport:
    """Judge Pr(goal verdict = 1) >= 1 - delta from binary run outcomes.

    Satisfied when the Wilson lower bound clears the target, violated when
    the upper bound falls short, inconclusive otherwise.
    """
    if not outcomes:
        raise InputError("constraint_check requires at least one outcome")
    if any(o not in (0, 1) for o in outcomes):
        raise InputError("outcomes must be 0/1 goal verdicts")
    k = sum(outcomes)
    n = len(outcomes)
    lo, hi = wilson_interval(k, n)
    target = 1.0 - delta
    if lo >= target:
        verdict = "satisfied"
    elif hi < target:
        verdict = "violated"
    else:
        verdict = "inconclusive"
    return ConstraintReport(k, n, k / n, lo, hi, target, verdict)


# ---------------------------------------------------------------------------
# Aggregation across runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Summary:
    metric: str
    mean: float
    median: float
    p95: float
    ci_low: float
    ci_high: float
    n_seeds: int
    effect_size_vs_baseline: float | None = None


def bootstrap_ci(
    values: np.ndarray, stream: Substream, resamples: int = BOOTSTRAP_RESAMPLES
) -> tuple[float, float]:
    """Percentile bootstrap 95% interval for the mean."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2 or np.ptp(values) == 0.0:
        return float(values.mean()), float(values.mean())
    idx = stream.integers(0, n, size=(resamples, n))
    means = values[idx].mean(axis=1)
    return float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5))


def cohens_d(values: np.ndarray, baseline: np.ndarray) -> float:
    """Standardized mean difference (values minus baseline, pooled SD)."""
    a = np.asarray(values, dtype=float)
    b = np.asarray(baseline, dtype=float)
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        return 0.0
    pooled = math.sqrt(
        ((na - 1) * a.var(ddof=1) + (nb - 1) * b.var(ddof=1)) / (na + nb - 2)
    )
    diff = float(a.mean() - b.mean())
    if pooled == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(float("inf"), diff)
    return diff / pooled


def aggregate(
    values: list[float],
    metric: str,
    bootstrap_stream: Substream,
    baseline: list[float] | None = None,
) -> Summary:
    """Mean, median, p95, bootstrap 95% CI, and effect size for one metric."""
    if len(values) < 2:
        raise InputError("aggregate requires at least two records")
    arr = np.asarray(values, dtype=float)
    lo, hi = bootstrap_ci(arr, bootstrap_stream)
    effect = cohens_d(arr, np.asarray(baseline, dtype=float)) if baseline else None
    return Summary(
        metric=metric,
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        p95=float(np.percentile(arr, 95)),
        ci_low=lo,
        ci_high=hi,
        n_seeds=len(values),
        effect_size_vs_baseline=effect,
    )
