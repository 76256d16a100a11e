import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoardbench.core.state import InputError
from hoardbench.ledger import (
    BOOTSTRAP_RESAMPLES,
    CostLedger,
    accrue,
    aggregate,
    bootstrap_ci,
    cohens_d,
    constraint_check,
    median,
    objective_value,
    percentile,
    wilson_interval,
)
from hoardbench.rng import Substream


def _resamples(seed, n):
    """The bootstrap index matrix the report draws for `n` seeds."""
    return Substream(seed, "bootstrap").integers(0, n, size=(BOOTSTRAP_RESAMPLES, n))


def test_zero_costs_leave_ledger_unchanged():
    ledger = CostLedger()
    accrue(ledger)
    assert (ledger.task_cost, ledger.latency_cost, ledger.leak_cost,
            ledger.repair_cost, ledger.compute_used) == (0, 0, 0, 0, 0)


def test_accrual_arithmetic():
    ledger = CostLedger()
    for _ in range(3):
        accrue(ledger, task=1, latency=2, leak=0, repair=0, compute=5)
    assert ledger.task_cost == 3
    assert ledger.latency_cost == 6
    assert ledger.compute_used == 15


def test_negative_costs_rejected():
    ledger = CostLedger()
    with pytest.raises(InputError):
        accrue(ledger, task=-0.1)
    assert ledger == CostLedger()


_COST_FIELDS = ("task", "latency", "leak", "repair", "compute")
_SUMS = ("task_cost", "latency_cost", "leak_cost", "repair_cost", "compute_used")


def _sums(ledger):
    return tuple(getattr(ledger, name) for name in _SUMS)


@pytest.mark.parametrize("value", [-1e-300, math.nan, math.inf], ids=["tiny_negative", "nan", "inf"])
@pytest.mark.parametrize("channel", _COST_FIELDS)
def test_each_channel_refuses_a_bad_cost_by_name(channel, value):
    ledger = CostLedger()
    accrue(ledger, 1.0, 1.0, 1.0, 1.0, 1.0)
    before = _sums(ledger)
    with pytest.raises(InputError, match=f"step cost {channel!r}="):
        accrue(ledger, **{channel: value})
    # Nothing is added before the check passes.
    assert _sums(ledger) == before and not ledger.exhausted


_GOOD_COST = st.floats(0.0, 1e6) | st.integers(0, 10**6)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(*[_GOOD_COST] * 5), min_size=1, max_size=8))
def test_keyword_and_positional_calls_accrue_the_same_sums(steps):
    by_name, by_place = CostLedger(budget=100.0), CostLedger(budget=100.0)
    for costs in steps:
        accrue(by_name, **dict(zip(_COST_FIELDS, costs)))
        accrue(by_place, *costs)
        assert _sums(by_name) == _sums(by_place)
        assert by_name.exhausted == by_place.exhausted


def _reference_step_cost_check(values):
    """The per-field check alone: the message `accrue` must raise, or None."""
    for name, v in zip(_COST_FIELDS, values):
        if v < 0 or not math.isfinite(v):
            return f"step cost {name!r}={v} must be finite and >= 0"
    return None


# Ints stay in the float range: beyond it the per-field check itself fails
# (math.isfinite raises OverflowError).
_cost_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**63), 2**63),
    st.booleans(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, -1e-300, 5e-324, 1.0]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.tuples(*[_cost_values] * 5))
@example((0.0, -0.0, 0.0, 0.0, 0.0))
@example((0.0, 0.0, math.nan, 0.0, 0.0))
@example((True, False, 1, 0, math.inf))
@example((1.0, 2.0, 3.0, 4.0, -math.inf))
@example((-0.0, -1, 0.0, math.nan, -1.0))
def test_step_cost_check_matches_per_field_oracle(values):
    expected = _reference_step_cost_check(values)
    # No budget to clamp at, so every channel's sum is 0.0 plus its cost.
    ledger = CostLedger(budget=math.inf)
    if expected is None:
        accrue(ledger, *values)
        assert _sums(ledger) == tuple(0.0 + v for v in values)
    else:
        with pytest.raises(InputError) as info:
            accrue(ledger, *values)
        assert str(info.value) == expected
        assert _sums(ledger) == (0.0,) * 5


def test_budget_exhaustion_marks_ledger():
    ledger = CostLedger(budget=10)
    accrue(ledger, compute=6)
    assert not ledger.exhausted
    accrue(ledger, compute=6)
    assert ledger.exhausted
    assert ledger.compute_used == 10  # clamped at the budget


def test_objective_weight_degeneracy():
    ledger = CostLedger(lambda_latency=0, lambda_leak=0, lambda_repair=0)
    accrue(ledger, task=2, latency=7, leak=3, repair=5)
    assert objective_value(ledger) == 2.0


def test_objective_single_channel():
    ledger = CostLedger(lambda_leak=1.0)
    accrue(ledger, leak=0.3)
    assert objective_value(ledger) == pytest.approx(0.3)


def test_objective_hand_computed_fixture():
    ledger = CostLedger(lambda_latency=0.5, lambda_leak=2.0, lambda_repair=0.25)
    accrue(ledger, task=1.5, latency=4.0, leak=0.2, repair=8.0)
    expected = 1.5 + 0.5 * 4.0 + 2.0 * 0.2 + 0.25 * 8.0
    assert objective_value(ledger) == pytest.approx(expected, abs=1e-15)


def test_objective_linear_in_each_weight():
    # Finite differencing the objective across weight perturbations must be
    # exact (to float round-off) because the objective is linear.
    base = dict(task=1.2, latency=3.4, leak=0.7, repair=2.1)
    for name, channel in (
        ("lambda_latency", "latency_cost"),
        ("lambda_leak", "leak_cost"),
        ("lambda_repair", "repair_cost"),
    ):
        values = []
        for eps in (0.5, 1.0):
            ledger = CostLedger(**{name: eps})
            accrue(ledger, **base)
            values.append(objective_value(ledger))
        slope = (values[1] - values[0]) / 0.5
        assert abs(slope - getattr(ledger, channel)) < 1e-12


def test_wilson_interval_hand_fixture():
    lo, hi = wilson_interval(92, 100)
    assert lo == pytest.approx(0.850, abs=5e-4)
    assert hi == pytest.approx(0.958, abs=1e-3)


def test_constraint_check_verdicts():
    assert constraint_check([1] * 100, 0.1)["verdict"] == "satisfied"
    assert constraint_check([0] * 100, 0.1)["verdict"] == "violated"
    report = constraint_check([1] * 92 + [0] * 8, 0.1)
    assert report["verdict"] == "inconclusive"
    assert report["ci_low"] == pytest.approx(0.850, abs=5e-4)


@pytest.mark.parametrize("outcomes, delta", [
    ([1] * 100, 0.1), ([0] * 100, 0.1), ([1] * 92 + [0] * 8, 0.1), ([1], 0.5), ([0, 1, 1], 0.25),
])
def test_constraint_check_returns_the_constraint_report_json_object(outcomes, delta):
    report = constraint_check(outcomes, delta)
    types = {"successes": int, "total": int, "frequency": float, "ci_low": float,
             "ci_high": float, "target": float, "verdict": str}
    assert {key: type(value) for key, value in report.items()} == types
    k, n = sum(outcomes), len(outcomes)
    assert (report["successes"], report["total"], report["frequency"]) == (k, n, k / n)
    assert (report["ci_low"], report["ci_high"]) == wilson_interval(k, n)
    assert report["target"] == 1.0 - delta


def test_constraint_check_monotone_in_successes():
    # Adding a success never moves the verdict toward violated.
    order = {"violated": 0, "inconclusive": 1, "satisfied": 2}
    outcomes = [0] * 30
    last = order[constraint_check(outcomes, 0.2)["verdict"]]
    for _ in range(60):
        outcomes = outcomes + [1]
        now = order[constraint_check(outcomes, 0.2)["verdict"]]
        assert now >= last
        last = now


def test_constraint_check_requires_outcomes():
    with pytest.raises(InputError):
        constraint_check([], 0.1)
    with pytest.raises(InputError):
        constraint_check([2], 0.1)


def test_aggregate_identical_records_zero_width_ci():
    # Constant values are not resampled, so they need no index matrix.
    mean, _, _, ci_lo, ci_hi, _, _ = aggregate([3.0] * 10, None)
    assert ci_lo == ci_hi == mean == 3.0


def test_aggregate_two_point_mean():
    assert aggregate([0.0, 1.0], _resamples(0, 2))[0] == 0.5


@pytest.mark.parametrize("n", [2, 5, 40])
def test_aggregate_returns_the_summary_row_in_column_order(n):
    # mean, median, p95, ci_lo, ci_hi, n_seeds, effect: bit for bit what
    # numpy gives over the same values and index matrix.
    draws = Substream(n, "env")
    values = list(draws.normal(0.0, 1.0, size=n))
    baseline = list(draws.normal(0.5, 1.0, size=n + 1))
    shared = _resamples(7, n)
    means = np.asarray(values)[shared].mean(axis=1)
    row = (float(np.mean(values)), float(np.median(values)), float(np.percentile(values, 95)),
           float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5)), n)
    got = aggregate(values, shared)
    assert len(got) == 7 and all(map(_same, got[:6], row)) and got[5] == n
    assert got[6] is None
    with_baseline = aggregate(values, shared, baseline)
    assert all(map(_same, with_baseline[:6], row))
    assert _same(with_baseline[6], cohens_d(np.asarray(values), np.asarray(baseline)))


def test_bootstrap_matches_independent_reimplementation():
    # Oracle: an independent bootstrap fed the same index matrix must agree
    # to within 0.005.
    values = np.asarray(Substream(5, "env").normal(0.0, 1.0, size=50))
    lo, hi = bootstrap_ci(values, _resamples(9, 50))

    stream = Substream(9, "bootstrap")
    idx = stream.integers(0, 50, size=(2000, 50))
    means = sorted(values[idx[k]].mean() for k in range(2000))
    lo2 = float(np.percentile(np.asarray(means), 2.5))
    hi2 = float(np.percentile(np.asarray(means), 97.5))
    assert abs(lo - lo2) < 0.005 and abs(hi - hi2) < 0.005


def _same(x, y):
    """Equal floats of the same sign, a zero's included; NaN equals NaN."""
    if x != x or y != y:
        return x != x and y != y
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


_SIGNED = st.sampled_from([-0.0, 0.0, 1.0, -1.0, math.inf, -math.inf])
_NORMAL = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(st.lists(_SIGNED, min_size=1, max_size=60),
                 st.lists(_NORMAL, min_size=1, max_size=60),
                 st.lists(st.one_of(_SIGNED, _NORMAL), min_size=1, max_size=60)))
@example([-0.0, 0.0])
@example([0.0, -0.0, -0.0])
@example([-0.0])
@example([1.0, math.inf])
def test_quantile_helpers_equal_numpy_bit_for_bit(values):
    # The report writes "-0" for a negative zero, so the sign counts too.
    arr = np.array(values)
    with np.errstate(invalid="ignore"):  # numpy's inf - inf
        for q in (0, 2.5, 50, 95, 97.5, 100):
            assert _same(percentile(arr, q), float(np.percentile(values, q))), q
        assert _same(median(arr), float(np.median(values)))
    assert arr.tobytes() == np.array(values).tobytes()  # the helpers partition a copy


def _stream_bootstrap_ci(values, stream, resamples=BOOTSTRAP_RESAMPLES):
    """`bootstrap_ci` as it was when each metric drew its own index matrix
    from a fresh bootstrap stream."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2 or np.ptp(values) == 0.0:
        return float(values.mean()), float(values.mean())
    idx = stream.integers(0, n, size=(resamples, n))
    means = values[idx].mean(axis=1)
    return float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5))


def test_one_index_matrix_per_seed_count_gives_every_metric_its_old_interval():
    # The metrics of one report: per seed count, one shared matrix against
    # a fresh stream per metric, for normal, tied, signed-zero, constant
    # and infinite values.
    draws = Substream(3, "env")
    for n in (2, 3, 7, 40):
        shared = _resamples(11, n)
        metrics = [
            draws.normal(0.0, 1.0, size=n),
            draws.integers(0, 3, size=n).astype(float),
            np.resize([-0.0, 0.0, -1.0], n),
            np.full(n, -0.0),
            np.resize([1.0, math.inf], n),
        ]
        for values in metrics:
            with np.errstate(invalid="ignore"):
                want = _stream_bootstrap_ci(values, Substream(11, "bootstrap"))
                got = bootstrap_ci(values, shared)
            assert all(map(_same, got, want)), (n, values)
        assert shared.tobytes() == _resamples(11, n).tobytes()  # only read


def test_cohens_d_sign_and_scale():
    a = [1.0, 1.1, 0.9, 1.0]
    b = [0.0, 0.1, -0.1, 0.0]
    d = cohens_d(np.asarray(a), np.asarray(b))
    assert d > 5


def test_aggregate_requires_two_records():
    with pytest.raises(InputError):
        aggregate([1.0], None)


def test_ledger_validation():
    with pytest.raises(InputError):
        CostLedger(budget=0)
    with pytest.raises(InputError):
        CostLedger(delta=1.5)
    with pytest.raises(InputError):
        CostLedger(lambda_leak=-1)
    # NaN fails every range test, so it names its field like any bad value.
    for name in ("lambda_latency", "lambda_leak", "lambda_repair", "budget", "delta"):
        with pytest.raises(InputError, match=name):
            CostLedger(**{name: math.nan})
    with pytest.raises(InputError, match="lambda_repair"):
        CostLedger(lambda_repair=math.inf)
    # No budget at all stays valid.
    assert not accrue(CostLedger(budget=math.inf), compute=1e300).exhausted
