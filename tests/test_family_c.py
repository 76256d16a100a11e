import json
import math

import pytest

from hoardbench.core.state import ConfigurationError, Trace
from hoardbench.envs import family_c
from hoardbench.envs.family_c import (
    AgentFlags,
    CacheSitePolicy,
    FamilyCConfig,
    run_family_c,
)
from hoardbench.core.policy import PolicyContext
from hoardbench.core.state import OptionKind
from hoardbench.harness import parse_config
from hoardbench.ledger import CostLedger
from hoardbench.observer import ObserverBelief, SawCache, observer_update
from hoardbench.rng import RunStreams

AWARE = AgentFlags(observer_aware=True, decoys_enabled=True)
UNAWARE = AgentFlags(observer_aware=False, decoys_enabled=False)


def _ledger():
    return CostLedger()


def test_invisible_agent_leaks_exactly_the_uniform_baseline():
    env = FamilyCConfig(visibility=0.0)
    record = run_family_c(env, UNAWARE, _ledger(), seed=11)
    baseline = env.caches / 400
    assert record.metrics["leakage"] == pytest.approx(baseline, abs=1e-12)
    assert record.metrics["violations"] == 0.0


def test_full_visibility_full_budget_loses_everything():
    # Every cache is seen and the pilfer budget covers them all.
    env = FamilyCConfig(visibility=1.0, pilfer_budget=10, diffusion_rate=0.0)
    record = run_family_c(env, UNAWARE, _ledger(), seed=2)
    assert record.metrics["caches_pilfered"] == env.caches
    assert record.metrics["recovered_value"] == 0.0


def test_aware_agent_beats_unaware_on_leakage_and_misses():
    seeds = range(30)
    aware_leak, unaware_leak, aware_miss, unaware_miss = [], [], [], []
    env = FamilyCConfig()
    for s in seeds:
        a = run_family_c(env, AWARE, _ledger(), s, end_only=False)
        u = run_family_c(env, UNAWARE, _ledger(), s, end_only=True)
        aware_leak.append(a.costs["leak_cost"])
        unaware_leak.append(u.costs["leak_cost"])
        aware_miss.append(a.metrics["verifier_miss_rate"])
        unaware_miss.append(u.metrics["verifier_miss_rate"])
    assert sum(aware_leak) < sum(unaware_leak)
    assert sum(aware_miss) < sum(unaware_miss)


def test_each_caching_step_updates_one_observer_belief(monkeypatch):
    # The aware agent reads the adversary's belief; no second copy is updated.
    calls = []

    def counting(belief, event):
        calls.append(event)
        return observer_update(belief, event)

    monkeypatch.setattr(family_c, "observer_update", counting)
    env = FamilyCConfig(caches=5)
    for flags in (AWARE, UNAWARE):
        calls.clear()
        run_family_c(env, flags, _ledger(), seed=4)
        assert len(calls) == 8 * env.caches


def test_end_only_monitor_misses_everything_before_the_pilfer():
    env = FamilyCConfig(visibility=0.8)
    record = run_family_c(env, UNAWARE, _ledger(), seed=3, end_only=True)
    assert record.metrics["violations"] > 0
    assert record.metrics["verifier_miss_rate"] == 1.0


def test_in_loop_monitor_catches_in_time():
    env = FamilyCConfig(visibility=0.8)
    record = run_family_c(env, UNAWARE, _ledger(), seed=3, end_only=False)
    assert record.metrics["verifier_miss_rate"] == 0.0


def test_conceal_option_thresholds_on_observer_mass():
    # Hand-built belief fixture: with every candidate cell the policy will
    # sample carrying more inferred mass than the threshold, it defers; on a
    # quiet grid it caches at the lowest-mass candidate.
    import numpy as np

    policy = CacheSitePolicy(theta=0.02, wait_steps=2, avoid=set())
    # Pre-draw the candidate cells the seeded stream will produce, then put
    # heavy mass exactly there.
    preview = RunStreams(0).agent.integers(0, 400, size=8)
    grid = np.full((20, 20), 1e-6)
    for k in preview:
        grid[int(k) // 20, int(k) % 20] = 0.05
    hot = ObserverBelief(grid / grid.sum())
    ctx = PolicyContext(rng=RunStreams(0).agent, observer_estimate=hot)
    choice = policy.select(None, ctx)
    assert choice.kind is OptionKind.CONCEAL
    assert choice.params["steps"] == 2.0

    quiet = ObserverBelief.uniform()
    ctx = PolicyContext(rng=RunStreams(0).agent, observer_estimate=quiet)
    choice = policy.select(None, ctx)
    assert choice.kind is OptionKind.CACHE
    cell = (int(choice.params["row"]), int(choice.params["col"]))
    assert cell in {(int(k) // 20, int(k) % 20) for k in preview}


def test_kappa_conservation():
    for flags in (AWARE, UNAWARE):
        record = run_family_c(FamilyCConfig(), flags, _ledger(), seed=6)
        assert sum(record.kappa_by_source.values()) == pytest.approx(
            record.costs["compute_used"]
        )


def test_observer_grid_dumped_row_major():
    record = run_family_c(FamilyCConfig(), AWARE, _ledger(), seed=1)
    assert record.observer_grid is not None
    assert len(record.observer_grid) == 400
    assert sum(record.observer_grid) == pytest.approx(1.0, abs=1e-9)


def test_reproducible_with_trace():
    env = FamilyCConfig()
    t1, t2 = Trace(), Trace()
    r1 = run_family_c(env, AWARE, _ledger(), 8, trace=t1)
    r2 = run_family_c(env, AWARE, _ledger(), 8, trace=t2)
    assert r1.to_json_line() == r2.to_json_line()
    assert t1.to_jsonl() == t2.to_jsonl()


def test_config_validation():
    with pytest.raises(ConfigurationError, match="visibility"):
        FamilyCConfig(visibility=1.5)
    with pytest.raises(ConfigurationError, match="pilfer_budget"):
        FamilyCConfig(pilfer_budget=0)
    with pytest.raises(ConfigurationError, match="forbidden_zone"):
        FamilyCConfig(forbidden_zone=(5, 5, 3, 3))
    with pytest.raises(ConfigurationError, match="verifier_fp"):
        FamilyCConfig(verifier_fp=0.5, verifier_fn=0.5)
    # The largest values that still run: a cache on every cell, a pilfer of
    # every cell, and no recovery phase at all.
    FamilyCConfig(caches=400, pilfer_budget=400, recovery_horizon=0, theta_obs=1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("caches", 500),
        ("caches", 2.5),
        ("caches", True),
        ("caches", 0),
        ("pilfer_budget", 1.5),
        ("pilfer_budget", 401),
        ("item_types", 0),
        ("landmark_count", 2),
        ("recovery_horizon", -3),
        ("conceal_wait_cost", 0),
        ("conceal_wait_cost", 2.5),
        ("monitor_delay", -1),
        ("visibility", math.nan),
        ("decoy_cost", -1.0),
        ("dig_radius", 0.0),
        ("diffusion_rate", 2.0),
        ("theta_obs", math.nan),
        ("theta_obs", math.inf),
        ("recovered_target", 1.5),
        ("verifier_fp", "0.1"),
        ("verifier_fn", 1.0),
        ("forbidden_zone", (0, 0, 2)),
        ("forbidden_zone", (0, 0, 2.5, 2)),
    ],
)
def test_config_rejects_bad_values_by_field_name(field, value):
    with pytest.raises(ConfigurationError, match=field):
        FamilyCConfig(**{field: value})
    with pytest.raises(ConfigurationError, match=field):
        parse_config(json.dumps({"family": "C", "env": {field: value}}))


def test_jobs_do_not_change_output_bytes(outputs_by_jobs):
    # All three variants, noisy monitors, with failure traces recorded.
    outputs = outputs_by_jobs({
        "family": "C",
        "seeds": "0..3",
        "env": {"caches": 12, "visibility": 0.7, "verifier_fp": 0.1, "verifier_fn": 0.1},
        "ablations": ["no_observer_model", "end_only_checking"],
    })
    files, _ = outputs[1]
    assert files["runs.jsonl"].count(b"\n") == 12
    assert sum(name.startswith("traces/") for name in files) == 9
    assert outputs[1] == outputs[2]


def test_traces_recorded_in_the_grid_match_the_replay(outputs_by_jobs):
    # One seed lists every cell, so every trace the grid records is written;
    # `report --in` replays them and is the oracle.
    outputs = outputs_by_jobs({
        "family": "C",
        "seeds": "4..4",
        "env": {"caches": 12, "visibility": 0.7, "verifier_fp": 0.1, "verifier_fn": 0.1},
        "ablations": ["no_observer_model", "end_only_checking"],
    })
    files, _ = outputs[1]
    assert sum(name.startswith("traces/") for name in files) == 3
    assert outputs[1] == outputs[2]


def test_hidden_zone_postcondition_reported():
    # The agent does not know the zone; the postcondition still judges it.
    env = FamilyCConfig(forbidden_zone=(0, 0, 19, 19))  # everywhere forbidden
    record = run_family_c(env, UNAWARE, _ledger(), seed=0)
    assert record.metrics["zone_breaches"] == 1.0
    assert any(
        s["predicate_id"] == "no_cache_in_forbidden_zone" and not s["ground_truth_verdict"]
        for s in record.signals
    )
