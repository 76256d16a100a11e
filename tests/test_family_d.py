import json
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoardbench.core.state import ConfigurationError
from hoardbench.envs.family_d import (
    Constraint,
    FamilyDConfig,
    RoleMode,
    _hill_climb,
    _sample_universe,
    _violations,
    run_family_d,
)
from hoardbench.harness import parse_config
from hoardbench.ledger import CostLedger
from hoardbench.rng import Substream

KINDS = ("forbid_symbol", "require_symbol", "forbid_adjacent", "parity_ban")


def _ledger():
    return CostLedger()


def test_constraint_templates_evaluate():
    plan = (0, 1, 2, 3, 0, 1)
    assert not Constraint(0, "forbid_symbol", 2).satisfied(plan)
    assert Constraint(0, "forbid_symbol", 5).satisfied(plan)
    assert Constraint(0, "require_symbol", 3).satisfied(plan)
    assert not Constraint(0, "require_symbol", 4).satisfied(plan)
    assert not Constraint(0, "forbid_adjacent", 1, 2).satisfied(plan)
    assert Constraint(0, "forbid_adjacent", 2, 1).satisfied(plan)
    # parity: symbol 0 occupies positions 0 and 4 (even)
    assert not Constraint(0, "parity_ban", 0, 0).satisfied(plan)
    assert Constraint(0, "parity_ban", 0, 1).satisfied(plan)


def test_universe_sampler_avoids_direct_contradictions():
    stream = Substream(0, "env")
    for seed in range(5):
        universe = _sample_universe(FamilyDConfig(), Substream(seed, "env"))
        required = {c.a for c in universe if c.kind == "require_symbol"}
        forbidden = {c.a for c in universe if c.kind == "forbid_symbol"}
        assert not (required & forbidden)
        assert len(universe) == 40


def test_full_coverage_noiseless_checker_kills_silent_failures():
    env = FamilyDConfig(coverage=1.0)
    for seed in range(25):
        record = run_family_d(env, "differentiated", _ledger(), seed)
        assert record.metrics["silent_failure"] == 0.0


def test_full_knowledge_means_no_correlated_blind_spot():
    env = FamilyDConfig(knowledge_fraction=1.0)
    record = run_family_d(env, "differentiated", _ledger(), 0)
    assert record.metrics["correlated_error_rate"] == 0.0
    record = run_family_d(env, "single_agent", _ledger(), 0)
    assert record.metrics["correlated_error_rate"] == 0.0


def test_blind_spot_overlap_matches_independence_arithmetic():
    # Analytic expectation: (1 - kf)^2 for independent samples, (1 - kf) for
    # a shared one. Checked at desk scale; the acceptance suite re-runs this
    # at 500 seeds.
    env = FamilyDConfig(knowledge_fraction=0.6)
    diff = [
        run_family_d(env, "differentiated", _ledger(), s).metrics["correlated_error_rate"]
        for s in range(60)
    ]
    single = [
        run_family_d(env, "single_agent", _ledger(), s).metrics["correlated_error_rate"]
        for s in range(60)
    ]
    assert statistics.mean(diff) == pytest.approx(0.16, abs=0.03)
    assert statistics.mean(single) == pytest.approx(0.40, abs=0.03)


def test_differentiation_reduces_silent_failures():
    env = FamilyDConfig()
    diff = sum(
        run_family_d(env, RoleMode.DIFFERENTIATED, _ledger(), s).metrics["silent_failure"]
        for s in range(40)
    )
    single = sum(
        run_family_d(env, RoleMode.SINGLE_AGENT, _ledger(), s).metrics["silent_failure"]
        for s in range(40)
    )
    assert diff < single


def test_repair_rounds_bounted_and_counted():
    record = run_family_d(FamilyDConfig(), "differentiated", _ledger(), 1)
    assert 0 <= record.metrics["repair_rounds"] <= 5
    assert record.costs["repair_cost"] == record.metrics["repair_rounds"]


def test_checker_noise_produces_spurious_rounds():
    quiet = run_family_d(FamilyDConfig(), "differentiated", _ledger(), 3)
    noisy = run_family_d(
        FamilyDConfig(), "differentiated", _ledger(), 3, verifier_fp=0.3
    )
    assert noisy.metrics["repair_rounds"] >= quiet.metrics["repair_rounds"]


def test_kappa_conservation():
    for mode in ("differentiated", "single_agent"):
        record = run_family_d(FamilyDConfig(), mode, _ledger(), 2)
        assert sum(record.kappa_by_source.values()) == pytest.approx(
            record.costs["compute_used"]
        )


def test_goal_verdict_is_full_universe_satisfaction():
    record = run_family_d(FamilyDConfig(knowledge_fraction=1.0), "differentiated", _ledger(), 4)
    # With full knowledge the proposer can usually satisfy everything; the
    # verdict must agree with a direct evaluation either way.
    assert record.goal_verdict == int(record.metrics["released_violations"] == 0)


def test_reproducible():
    r1 = run_family_d(FamilyDConfig(), "differentiated", _ledger(), 7)
    r2 = run_family_d(FamilyDConfig(), "differentiated", _ledger(), 7)
    assert r1.to_json_line() == r2.to_json_line()


def test_config_validation():
    with pytest.raises(ConfigurationError, match="n_constraints"):
        FamilyDConfig(n_constraints=0)
    with pytest.raises(ConfigurationError):
        FamilyDConfig(knowledge_fraction=0.0)
    with pytest.raises(ConfigurationError):
        FamilyDConfig(coverage=1.2)


def test_witness_guarantees_satisfiable_universe():
    # The sampled universe always admits a satisfying plan.
    for seed in range(6):
        env = FamilyDConfig()
        record = run_family_d(env, "differentiated", _ledger(), seed)
        n = record.metrics["universe_size"]
        # The witness usually drops a few constraints (median 3 of 40 over
        # seeds 0-199), never most of the universe.
        assert n >= 30


@pytest.mark.parametrize(
    "field, low",
    [("n_constraints", 1), ("plan_length", 2), ("alphabet_size", 2), ("adversary_probes", 0)],
)
@pytest.mark.parametrize("bad", ["below", 2.5, 4.0, True, "3"])
def test_config_rejects_non_integer_and_degenerate_counts(field, low, bad):
    value = low - 1 if bad == "below" else bad
    with pytest.raises(ConfigurationError, match=field):
        FamilyDConfig(**{field: value})
    with pytest.raises(ConfigurationError, match=field):
        parse_config(json.dumps({"family": "D", "env": {field: value}}))


def test_jobs_do_not_change_output_bytes(outputs_by_jobs):
    # Both modes, noisy checkers, with failure traces recorded.
    outputs = outputs_by_jobs({
        "family": "D",
        "seeds": "0..3",
        "env": {"n_constraints": 16},
        "agent": {"checker_fp": 0.1, "checker_fn": 0.2},
        "ablations": ["single_agent"],
    })
    files, _ = outputs[1]
    assert files["runs.jsonl"].count(b"\n") == 8
    assert sum(name.startswith("traces/") for name in files) == 6
    assert outputs[1] == outputs[2]


def test_traces_recorded_in_the_grid_match_the_replay(outputs_by_jobs):
    # Three seeds of one variant: every cell is listed, so every trace the
    # grid records is written; `report --in` replays them and is the oracle.
    outputs = outputs_by_jobs({
        "family": "D",
        "seeds": "4..6",
        "env": {"n_constraints": 16},
        "agent": {"checker_fp": 0.1, "checker_fn": 0.2},
    })
    files, _ = outputs[1]
    assert sum(name.startswith("traces/") for name in files) == 3
    assert outputs[1] == outputs[2]


def _reference_climb(plan, known, alphabet, stream, iterations):
    """Brute-force climb: re-runs `_violations` on every trial plan."""
    positions = stream.integers(0, len(plan), size=iterations)
    symbols = stream.integers(0, alphabet, size=iterations)
    current = list(plan)
    current_bad = len(_violations(tuple(current), known))
    evals = 1
    for pos, sym in zip(positions, symbols):
        if current_bad == 0:
            break
        trial = list(current)
        trial[int(pos)] = int(sym)
        bad = len(_violations(tuple(trial), known))
        evals += 1
        if bad <= current_bad:
            current, current_bad = trial, bad
    return tuple(current), evals


def _assert_climb_matches_reference(plan, known, alphabet, iterations, seed):
    fast, slow = Substream(seed, "agent"), Substream(seed, "agent")
    assert _hill_climb(plan, known, alphabet, fast, iterations) == _reference_climb(
        plan, known, alphabet, slow, iterations
    )
    assert fast.draws == slow.draws
    assert fast.integers(0, 2**62) == slow.integers(0, 2**62)


@st.composite
def _climb_cases(draw):
    alphabet = draw(st.integers(2, 8))
    symbol = st.integers(0, alphabet - 1)
    plan = tuple(draw(st.lists(symbol, min_size=2, max_size=16)))
    specs = draw(st.lists(st.tuples(st.sampled_from(KINDS), symbol, symbol), max_size=12))
    if specs:
        specs += draw(st.lists(st.sampled_from(specs), max_size=4))  # duplicates
    known = [
        Constraint(cid, kind, a, b % 2 if kind == "parity_ban" else b)
        for cid, (kind, a, b) in enumerate(specs)
    ]
    if draw(st.booleans()):
        known = [c for c in known if c.satisfied(plan)]  # start already satisfies all
    iterations = draw(st.sampled_from((1, 200, 2000)))
    return plan, known, alphabet, iterations, draw(st.integers(0, 2**32 - 1))


_ALL_KINDS_TWICE = [
    Constraint(cid, kind, a, b)
    for cid, (kind, a, b) in enumerate(
        [("forbid_symbol", 1, 0), ("require_symbol", 2, 0), ("forbid_adjacent", 0, 0),
         ("parity_ban", 3, 1), ("forbid_adjacent", 2, 3)] * 2
    )
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_climb_cases())
@example(((0, 0, 3, 3, 0, 1), _ALL_KINDS_TWICE, 4, 2000, 5))
@example(((1, 2, 1, 2), [c for c in _ALL_KINDS_TWICE if c.satisfied((1, 2, 1, 2))], 4, 200, 6))
def test_incremental_climb_matches_brute_force_oracle(case):
    _assert_climb_matches_reference(*case)


def test_climb_with_huge_alphabet_keeps_memory_per_feature():
    # Dense alphabet-squared tables would need 10**10 cells here.
    alphabet = 10**5
    stream = Substream(11, "env")
    plan = tuple(int(v) for v in stream.integers(0, alphabet, size=12))
    known = [
        Constraint(0, "require_symbol", alphabet - 1),
        Constraint(1, "forbid_symbol", plan[0]),
        Constraint(2, "forbid_adjacent", plan[3], plan[4]),
        Constraint(3, "parity_ban", plan[5], 1),
    ]
    _assert_climb_matches_reference(plan, known, alphabet, 2000, 12)
