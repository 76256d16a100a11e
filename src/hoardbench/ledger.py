"""Cost accounting, the scalar objective, constraint verdicts, and reporting
statistics.

The objective is a weighted sum of four cost channels accrued per step:

    objective = task + lambda_latency * latency + lambda_leak * leak
                + lambda_repair * repair

Compute burden (kappa) is accounted separately against a hard budget; runs
that exhaust it end with a budget-exhausted outcome rather than an error.
The goal-verdict constraint is judged with a Wilson 95% interval on the
empirical success frequency.

The report statistics return plain rows, in the form their files write:
`constraint_check` a variant's constraint_report.json object, `aggregate`
a summary.csv row's statistics in column order.

The report's statistics (median, percentiles, the bootstrap interval) go
through `percentile` and `median`, which give `np.percentile` (linear) and
`np.median` bit for bit, the sign of a zero included, without numpy's
`np.unique` path and the `numpy.ma` import its first call costs. The
bootstrap takes its index matrix from the caller, so one matrix per seed
count serves every metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import inf

import numpy as np

from .core.state import InputError

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

    # The running sums, which `accrue` sets. Two loops also set some of them
    # by `accrue`'s rule, from sums they keep in locals: family A's stabilize
    # loop `latency_cost`, `repair_cost` and `compute_used` (and `exhausted`)
    # for a trial (`envs/family_a.py::run_family_a`), and family C's caching
    # loop those and `leak_cost` for the caching phase
    # (`envs/family_c.py::run_family_c`). Each starts at 0.0 or False
    # from a factory, so that it lives on the instance from the start; a
    # plain default would be read from the class until first set, at twice
    # the cost of the per-step reads.
    task_cost: float = field(default_factory=float, init=False)
    latency_cost: float = field(default_factory=float, init=False)
    leak_cost: float = field(default_factory=float, init=False)
    repair_cost: float = field(default_factory=float, init=False)
    compute_used: float = field(default_factory=float, init=False)
    exhausted: bool = field(default_factory=bool, init=False)

    def __post_init__(self):
        # Each test fails on NaN; an infinite budget is no budget.
        for name in ("lambda_latency", "lambda_leak", "lambda_repair"):
            weight = getattr(self, name)
            if not 0.0 <= weight < inf:
                raise InputError(f"cost weight {name} must be finite and >= 0, got {weight!r}")
        if not self.budget > 0:
            raise InputError(f"compute budget must be positive, got {self.budget!r}")
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


def constraint_check(outcomes: list[int], delta: float) -> dict:
    """Judge Pr(goal verdict = 1) >= 1 - delta from binary run outcomes, as
    constraint_report.json's object for one variant: `successes`, `total`,
    `frequency`, the Wilson bounds `ci_low` and `ci_high`, `target` and
    `verdict`.

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
    return {"successes": k, "total": n, "frequency": k / n, "ci_low": lo, "ci_high": hi,
            "target": target, "verdict": verdict}


# ---------------------------------------------------------------------------
# Aggregation across runs
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """`np.percentile(values, q)` (linear method) of values that hold no
    NaN, bit for bit.

    It partitions a copy at numpy's index set, sorted {0, -1, below, above},
    so that of equal values (0.0 and -0.0) the same one lands at each index,
    and interpolates the way numpy's `_lerp` does."""
    a = np.array(values, dtype=float)
    n = len(a)
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        below = above = -1
    elif virtual < 0:
        below = above = 0
    else:
        below = math.floor(virtual)
        above = below + 1
    a.partition(sorted({0, -1, below, above}))
    lo, hi = float(a[below]), float(a[above])
    t = virtual - below
    d = hi - lo
    return hi - d * (1 - t) if t >= 0.5 else lo + d * t


def median(values) -> float:
    """`np.median(values)` of values that hold no NaN, bit for bit: the
    same partition, then a mean summed from 0.0, so that the median of
    [-0.0] is 0.0 as numpy's is."""
    a = np.array(values, dtype=float)
    h = len(a) // 2
    if len(a) % 2:
        a.partition([h, -1])
        return (0.0 + float(a[h])) / 1
    a.partition([h - 1, h, -1])
    return (0.0 + float(a[h - 1]) + float(a[h])) / 2


def resampled(values) -> bool:
    """Whether `bootstrap_ci` resamples `values`, so needs an index matrix:
    two or more values, not all equal."""
    return len(values) > 1 and np.ptp(values) != 0.0


def bootstrap_ci(values, resamples: np.ndarray | None) -> tuple[float, float]:
    """Percentile bootstrap 95% interval for the mean.

    `resamples` is the bootstrap's index matrix, one row of `len(values)`
    indices into `values` per resample (the report draws
    BOOTSTRAP_RESAMPLES rows once per seed count). Values that are not
    `resampled` need none: their interval is their mean."""
    values = np.asarray(values, dtype=float)
    if not resampled(values):
        return float(values.mean()), float(values.mean())
    means = values[resamples].mean(axis=1)
    return percentile(means, 2.5), percentile(means, 97.5)


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
    resamples: np.ndarray | None,
    baseline: list[float] | None = None,
) -> tuple:
    """One summary.csv row's statistics, in its column order after the
    metric name: mean, median, p95, the bootstrap 95% CI of the mean, the
    seed count, and the effect size against `baseline` (None without one).
    `resamples` is `bootstrap_ci`'s index matrix for `len(values)` seeds,
    or None when the values are not `resampled`."""
    if len(values) < 2:
        raise InputError("aggregate requires at least two records")
    arr = np.asarray(values, dtype=float)
    lo, hi = bootstrap_ci(arr, resamples)
    effect = cohens_d(arr, np.asarray(baseline, dtype=float)) if baseline else None
    return float(arr.mean()), median(arr), percentile(arr, 95), lo, hi, len(values), effect
