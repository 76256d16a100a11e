import hashlib
import json
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoardbench.core.state import ConfigurationError, Trace
from hoardbench.envs import family_d
from hoardbench.envs.family_d import (
    CONSTRAINT_KINDS as KINDS,
    MAX_ALPHABET,
    MAX_CONSTRAINTS,
    MAX_PLAN_LENGTH,
    WITNESS_ITERATIONS,
    Constraint,
    FamilyDConfig,
    RoleMode,
    _hill_climb,
    _sample_universe,
    _solvable_universe,
    _violations,
    run_family_d,
)
from hoardbench.harness import parse_config, run_grid, write_report
from hoardbench.ledger import CostLedger
from hoardbench.rng import Substream


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


@pytest.mark.parametrize(
    "kind, b, message",
    [("forbid_symbols", 0, "unknown constraint kind"), ("parity_ban", 2, "parity"),
     ("parity_ban", -1, "parity")],
)
def test_constraint_rejects_what_it_cannot_mean_when_built(kind, b, message):
    with pytest.raises(ConfigurationError, match=message):
        Constraint(0, kind, 1, b)


def _generator_satisfied(c, plan):
    """The generator forms `Constraint.satisfied` used to have: its oracle."""
    if c.kind == "forbid_symbol":
        return c.a not in plan
    if c.kind == "require_symbol":
        return c.a in plan
    if c.kind == "forbid_adjacent":
        return all(
            not (plan[i] == c.a and plan[i + 1] == c.b) for i in range(len(plan) - 1)
        )
    return all(plan[i] != c.a for i in range(c.b, len(plan), 2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_satisfied_matches_its_generator_forms(data):
    alphabet = data.draw(st.integers(1, 5))
    symbol = st.integers(0, alphabet - 1)
    plan = tuple(data.draw(st.lists(symbol, max_size=10)))
    kind = data.draw(st.sampled_from(KINDS))
    b = data.draw(st.integers(0, 1) if kind == "parity_ban" else symbol)
    constraint = Constraint(0, kind, data.draw(symbol), b)
    assert constraint.satisfied(plan) is _generator_satisfied(constraint, plan)


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


@pytest.mark.parametrize("field, value", [
    # Accepted before they had caps, then crashed the cell: the universe and
    # plan draws beyond numpy's largest array, and a symbol draw beyond int64.
    ("n_constraints", 10**20),
    ("n_constraints", MAX_CONSTRAINTS + 1),
    ("plan_length", 10**20),
    ("plan_length", MAX_PLAN_LENGTH + 1),
    ("alphabet_size", 10**20),
    ("alphabet_size", MAX_ALPHABET + 1),
])
def test_config_refuses_int_keys_beyond_their_caps(field, value):
    with pytest.raises(ConfigurationError, match=field):
        FamilyDConfig(**{field: value})
    with pytest.raises(ConfigurationError, match=field):
        parse_config(json.dumps({"family": "D", "env": {field: value}}))


@pytest.mark.parametrize("field, cap", [
    ("n_constraints", MAX_CONSTRAINTS),
    ("plan_length", MAX_PLAN_LENGTH),
    ("alphabet_size", MAX_ALPHABET),
])
def test_a_cell_at_each_cap_runs(field, cap):
    env = FamilyDConfig(**{field: cap})
    record = run_family_d(env, "differentiated", _ledger(), 2)
    assert record.status == "completed"
    assert 0 < record.metrics["universe_size"] <= env.n_constraints


def test_jobs_do_not_change_output_bytes(outputs_by_jobs):
    # Both modes, noisy checkers, with trace windows written.
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
    # Three seeds of one variant: every cell is listed, and the one with a
    # failing signal gets a window; `report --in` replays it and is the
    # oracle.
    outputs = outputs_by_jobs({
        "family": "D",
        "seeds": "4..6",
        "env": {"n_constraints": 16},
        "agent": {"checker_fp": 0.1, "checker_fn": 0.2},
    })
    files, _ = outputs[1]
    assert sum(name.startswith("traces/") for name in files) == 1
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


def _top_symbol_case(alphabet, arrive, seed):
    """A 2,000-iteration climb whose constraints all name the last symbol of
    the symbol tables, `alphabet - 1`. With `arrive`, the plan lacks it and a
    require_symbol makes the climb draw it; otherwise every kind names it,
    forbid_symbol twice, and the plan starts full of it."""
    top = alphabet - 1
    specs = [("require_symbol", top, 0), ("forbid_adjacent", top, top),
             ("forbid_adjacent", top, 0), ("parity_ban", top, 1)]
    if not arrive:
        specs += [("forbid_adjacent", 0, top), ("parity_ban", top, 0),
                  ("forbid_symbol", top, 0), ("forbid_symbol", top, 0)]
    known = [Constraint(cid, kind, a, b) for cid, (kind, a, b) in enumerate(specs)]
    plan = (0, 0, 0, 0, 0) if arrive else (top, top, 0, top, 0, top)
    return plan, known, alphabet, 2000, seed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_climb_cases())
@example(((0, 0, 3, 3, 0, 1), _ALL_KINDS_TWICE, 4, 2000, 5))
@example(((1, 2, 1, 2), [c for c in _ALL_KINDS_TWICE if c.satisfied((1, 2, 1, 2))], 4, 200, 6))
@example(_top_symbol_case(2, False, 7))
@example(_top_symbol_case(2, True, 8))
@example(_top_symbol_case(MAX_ALPHABET, False, 9))
@example(_top_symbol_case(MAX_ALPHABET, True, 10))
def test_incremental_climb_matches_brute_force_oracle(case):
    _assert_climb_matches_reference(*case)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_witness_climb_at_the_alphabet_cap_matches_the_reference(seed):
    env = FamilyDConfig(n_constraints=200, alphabet_size=MAX_ALPHABET)
    stream = Substream(seed, "env")
    universe = _sample_universe(env, stream)
    witness = tuple(int(v) for v in stream.integers(0, MAX_ALPHABET, size=env.plan_length))
    _assert_climb_matches_reference(witness, universe, MAX_ALPHABET, WITNESS_ITERATIONS, seed)


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


@pytest.fixture
def universe_seeds(monkeypatch):
    """The seed of every `_sample_universe` call in this process, from a
    cold universe memo on."""
    seeds = []

    def counting(config, stream):
        seeds.append(stream.seed)
        return _sample_universe(config, stream)

    monkeypatch.setattr(family_d, "_sample_universe", counting)
    _solvable_universe.cache_clear()
    return seeds


def test_grid_builds_each_seeds_universe_once(universe_seeds):
    config = parse_config(json.dumps({
        "family": "D", "seeds": "0..2", "ablations": ["single_agent"],
    }))
    result = run_grid(config, jobs=1)
    assert [c.record.status for c in result.cells] == ["completed"] * 6
    assert universe_seeds == [0, 1, 2]


# runs.jsonl of the coverage sweep below, recorded from the code that keyed
# the universe memo on the whole env config and so built it per sweep value.
COVERAGE_SWEEP_RUNS_SHA256 = "43e1170a3d9f56a1cfbbd219dff4f579664d1810b3262cfe5160bc51fcf3d394"


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_over_a_key_the_universe_ignores_builds_it_once_per_seed(
    jobs, universe_seeds, tmp_path
):
    config = parse_config(json.dumps({
        "family": "D", "seeds": "0..2", "ablations": ["single_agent"],
        "sweep": {"key": "coverage", "values": [0.3, 0.6]},
    }))
    result = run_grid(config, jobs=jobs)
    assert [(c.variant, c.seed) for c in result.cells] == [
        (f"{variant}@coverage={coverage}", seed)
        for variant in ("baseline", "single_agent")
        for coverage in (0.3, 0.6)
        for seed in range(3)
    ]
    if jobs == 1:  # pool workers count into their own copy of the list
        assert universe_seeds == [0, 1, 2]
    write_report(result, tmp_path)
    digest = hashlib.sha256((tmp_path / "runs.jsonl").read_bytes()).hexdigest()
    assert digest == COVERAGE_SWEEP_RUNS_SHA256


@pytest.mark.parametrize("mode, other", [
    ("differentiated", "single_agent"), ("single_agent", "differentiated"),
])
def test_cell_on_a_cold_memo_matches_one_after_another_variant(mode, other, tmp_path):
    env = FamilyDConfig()

    def cell(name):
        trace = Trace()
        record = run_family_d(env, mode, _ledger(), 5, 0.1, 0.2, trace)
        trace.write_jsonl(tmp_path / name)
        return record.to_json_line(), (tmp_path / name).read_bytes()

    _solvable_universe.cache_clear()
    cold = cell("cold.jsonl")
    run_family_d(env, other, _ledger(), 5, 0.1, 0.2)
    hits = _solvable_universe.cache_info().hits
    warm = cell("warm.jsonl")
    assert _solvable_universe.cache_info().hits == hits + 1
    assert warm == cold


# sha256 of runs.jsonl and of the whole trace of each cell the report listed
# for the grid below, recorded from the code that kept each plan record's
# action params as a dict of int keys and wrote them through a shape found
# per record. The report wrote each listed trace whole then; the traces are
# now replayed.
PLAN_GRID_SHA256 = {
    "runs.jsonl": "a456fc07c7b058ec216307e5896cc8228679cb3a044c515e4c03a553f4d0e811",
    "traces/baseline_plan_length_12/seed_0.jsonl": "9f24b9e2ffaabf0eab20d8c76536a92ab59501429bac7143454249ca3b7d0f22",
    "traces/baseline_plan_length_12/seed_2.jsonl": "fdc98d718d6d74fe5a41e3c200051ea5fa755aadda13a1b0eaf53339a23ba115",
    "traces/baseline_plan_length_12/seed_3.jsonl": "11f05d9c89a3b0aa013a32bfeb5b54cc4432096323087a4d4d5d6136beca455c",
    "traces/baseline_plan_length_16/seed_0.jsonl": "4b8e62d9ab582c61ac1584726b80a402fb2633657749755e945aa63fbe17e336",
    "traces/baseline_plan_length_16/seed_1.jsonl": "79c78f592c613af0a72ca762fa56710fa0f8211a2abbf89a8c64f793aec21fae",
    "traces/baseline_plan_length_16/seed_3.jsonl": "fd4e158167ab4efdf8f6ae33e857bed2d56dc9a372ebb8414dc5e22758f0fad9",
    "traces/single_agent_plan_length_12/seed_0.jsonl": "17eed26a80592d99227d23dc50137ffee776c7ee4dd58bd8aad1e2c444e39f18",
    "traces/single_agent_plan_length_12/seed_1.jsonl": "88d0cc90dc825ed1967c3e903e81257f86ea3a05d41927d2792eb034f25d9a16",
    "traces/single_agent_plan_length_12/seed_2.jsonl": "4c632ddd0d403e0f95c2bf76f512095f1991f72c3a402ee944c41c3b9fe13aa8",
    "traces/single_agent_plan_length_16/seed_0.jsonl": "b57d6c69c95d3e5aad52e9341cffcd2e5eaf7389edb35cb86174182f737d244a",
    "traces/single_agent_plan_length_16/seed_1.jsonl": "41f61c6d4932b1c961d8427bf4e7539a62ca91371d15a895eb926bfd891c5ead",
    "traces/single_agent_plan_length_16/seed_2.jsonl": "5fc48572257a829c919afe145400c7b1e630f173613e41ced657047a8a10b96d",
}


# sha256 of summary.csv, constraint_report.json, failures.md and each trace
# window the report writes for the grid below.
PLAN_REPORT_SHA256 = {
    "summary.csv": "4cfe00118b63af0004985dc270f5b3bfc2db45095dd1dd21297d413b367826f4",
    "constraint_report.json": "7e1f77705d04384bc2fd07fdc4ddf9e03f584bdc5c84adf52acdcbdef6a22b24",
    "failures.md": "7980b1c0fb461400a5a150ee736b7fe2deae39eb9095c462765788e498392a13",
    "traces/baseline_plan_length_12/seed_0_steps_0_5.jsonl": "9f24b9e2ffaabf0eab20d8c76536a92ab59501429bac7143454249ca3b7d0f22",
    "traces/baseline_plan_length_12/seed_2_steps_0_5.jsonl": "fdc98d718d6d74fe5a41e3c200051ea5fa755aadda13a1b0eaf53339a23ba115",
    "traces/baseline_plan_length_12/seed_3_steps_0_4.jsonl": "11f05d9c89a3b0aa013a32bfeb5b54cc4432096323087a4d4d5d6136beca455c",
    "traces/baseline_plan_length_16/seed_0_steps_0_2.jsonl": "4b8e62d9ab582c61ac1584726b80a402fb2633657749755e945aa63fbe17e336",
    "traces/baseline_plan_length_16/seed_1_steps_0_5.jsonl": "79c78f592c613af0a72ca762fa56710fa0f8211a2abbf89a8c64f793aec21fae",
    "traces/baseline_plan_length_16/seed_3_steps_0_3.jsonl": "fd4e158167ab4efdf8f6ae33e857bed2d56dc9a372ebb8414dc5e22758f0fad9",
    "traces/single_agent_plan_length_12/seed_0_steps_0_5.jsonl": "17eed26a80592d99227d23dc50137ffee776c7ee4dd58bd8aad1e2c444e39f18",
    "traces/single_agent_plan_length_12/seed_1_steps_0_0.jsonl": "88d0cc90dc825ed1967c3e903e81257f86ea3a05d41927d2792eb034f25d9a16",
    "traces/single_agent_plan_length_12/seed_2_steps_0_0.jsonl": "4c632ddd0d403e0f95c2bf76f512095f1991f72c3a402ee944c41c3b9fe13aa8",
    "traces/single_agent_plan_length_16/seed_0_steps_0_5.jsonl": "b57d6c69c95d3e5aad52e9341cffcd2e5eaf7389edb35cb86174182f737d244a",
    "traces/single_agent_plan_length_16/seed_1_steps_0_1.jsonl": "41f61c6d4932b1c961d8427bf4e7539a62ca91371d15a895eb926bfd891c5ead",
    "traces/single_agent_plan_length_16/seed_2_steps_0_0.jsonl": "5fc48572257a829c919afe145400c7b1e630f173613e41ced657047a8a10b96d",
}


def test_output_bytes_across_modes_plan_lengths_and_repair_rounds(tmp_path, report_sha256,
                                                                  replayed_sha256):
    # Both modes at plan lengths 12 and 16, whose action keys run past "9"
    # and must be written in numeric order; a noisy checker makes the
    # listed cells take from 0 to the full 5 repair rounds.
    config = parse_config(json.dumps({
        "family": "D", "seeds": "0..3",
        "env": {"n_constraints": 30},
        "agent": {"checker_fp": 0.02, "checker_fn": 0.1},
        "ablations": ["single_agent"],
        "sweep": {"key": "plan_length", "values": [12, 16]},
    }))
    write_report(run_grid(config, jobs=1), tmp_path)
    runs = [json.loads(line) for line in (tmp_path / "runs.jsonl").read_text().splitlines()]
    assert {r["metrics"]["repair_rounds"] for r in runs} == {0.0, 1.0, 2.0, 3.0, 4.0, 5.0}
    written = report_sha256(tmp_path)
    first = (tmp_path / min(name for name in written if name.startswith("traces/"))).open()
    assert '"9":1.0,"10":3.0,"11":0.0}' in first.readline()
    whole = {name: replayed_sha256(config, name) for name in PLAN_GRID_SHA256
             if name.startswith("traces/")}
    assert {"runs.jsonl": written.pop("runs.jsonl"), **whole} == PLAN_GRID_SHA256
    assert written == PLAN_REPORT_SHA256
