import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hoardbench.harness import parse_config, run_grid, write_report
from hoardbench.ledger import CostLedger
from hoardbench.observer import ObserverBelief, SawCache, observer_update
from hoardbench.rng import RunStreams, Substream

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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3200))
def test_one_call_visibility_draws_equal_per_step_draws(seed, steps):
    # Family C draws a phase's visibility values in one call; one draw per
    # step gives the same values in the same order.
    one_call = Substream(seed, "adversary").random(size=steps).tolist()
    stream = Substream(seed, "adversary")
    per_step = [float(stream.random()) for _ in range(steps)]
    assert one_call == per_step


def test_the_visibility_draws_are_the_runs_only_adversary_draws(monkeypatch):
    # The one-call draw equals per-step draws only while nothing else in the
    # run draws on the adversary stream between them.
    made = []

    def recording(seed):
        made.append(RunStreams(seed))
        return made[-1]

    monkeypatch.setattr(family_c, "RunStreams", recording)
    for flags in (AWARE, UNAWARE):
        for end_only in (False, True):
            made.clear()
            run_family_c(FamilyCConfig(caches=5), flags, _ledger(), 4, end_only)
            assert made[0].adversary.draws == 1


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


# sha256 of runs.jsonl and of each trace file the report writes for the grids
# below, recorded from the code that looked each layout's flat indices up in
# a memo on every step, drew visibility once per step and built an `Action`
# per trace record.
LOOP_GRID_SHA256 = {
    "decoys_False/runs.jsonl": "cb3337c6b6d47b77feb758b551470a8b72975526345f3fc4abfd770f561b898c",
    "decoys_False/traces/baseline_diffusion_rate_0.0/seed_0.jsonl": "d9dbbe728b3dc2e5a83873cdf1ecaa8940b884550e8cdd4dc72b0180225334a3",
    "decoys_False/traces/baseline_diffusion_rate_0.0/seed_1.jsonl": "6857c70588ba554433dc7f720a0984a4442c8b498aadb8017044439e0388c917",
    "decoys_False/traces/baseline_diffusion_rate_0.05/seed_0.jsonl": "d9dbbe728b3dc2e5a83873cdf1ecaa8940b884550e8cdd4dc72b0180225334a3",
    "decoys_False/traces/baseline_diffusion_rate_0.05/seed_1.jsonl": "6857c70588ba554433dc7f720a0984a4442c8b498aadb8017044439e0388c917",
    "decoys_False/traces/end_only_checking_diffusion_rate_0.0/seed_0.jsonl": "44dc602945007cec7d2a4bae2a3a401f09f1565f77811d91b47bc59b54c3d887",
    "decoys_False/traces/end_only_checking_diffusion_rate_0.0/seed_1.jsonl": "a8ab9a84021da54b1762b664ae8750689e8b61b426803b2f47d0c838db4a858f",
    "decoys_False/traces/end_only_checking_diffusion_rate_0.05/seed_0.jsonl": "44dc602945007cec7d2a4bae2a3a401f09f1565f77811d91b47bc59b54c3d887",
    "decoys_False/traces/end_only_checking_diffusion_rate_0.05/seed_1.jsonl": "a8ab9a84021da54b1762b664ae8750689e8b61b426803b2f47d0c838db4a858f",
    "decoys_False/traces/no_observer_model_diffusion_rate_0.0/seed_0.jsonl": "01033fd30c2272f9136784de07456da902ab909a63bea71241cf99feea4358d5",
    "decoys_False/traces/no_observer_model_diffusion_rate_0.0/seed_1.jsonl": "62db7cda8ebb0c7a1eec95ac6db5582654f9e60f4a911d21eab503e4c7cac88c",
    "decoys_False/traces/no_observer_model_diffusion_rate_0.05/seed_0.jsonl": "01033fd30c2272f9136784de07456da902ab909a63bea71241cf99feea4358d5",
    "decoys_False/traces/no_observer_model_diffusion_rate_0.05/seed_1.jsonl": "62db7cda8ebb0c7a1eec95ac6db5582654f9e60f4a911d21eab503e4c7cac88c",
    "decoys_True/runs.jsonl": "2957e27453decdad550764efd51c76e9f7fbde0365b6d6260fdfa6e06b57b84f",
    "decoys_True/traces/baseline_diffusion_rate_0.0/seed_0.jsonl": "0b85d07ff5c45c5abd2854a1f9c05fd49b3c7d2111d5fd9da24938b1c5cbd83a",
    "decoys_True/traces/baseline_diffusion_rate_0.0/seed_1.jsonl": "f97318300779d27165d5c77786e8593296af9f8d31babfbc6c99fc5a5d605f61",
    "decoys_True/traces/baseline_diffusion_rate_0.05/seed_0.jsonl": "0b85d07ff5c45c5abd2854a1f9c05fd49b3c7d2111d5fd9da24938b1c5cbd83a",
    "decoys_True/traces/baseline_diffusion_rate_0.05/seed_1.jsonl": "157ce8f19ace4b996cdca0635ba0b4283b90fe8f44e6b8a657dabc8cdbf3c59a",
    "decoys_True/traces/end_only_checking_diffusion_rate_0.0/seed_0.jsonl": "93ab1a980c6f00f67c6cf621d7c69b046f2a31e009aea4c1b686d1cf333bdad1",
    "decoys_True/traces/end_only_checking_diffusion_rate_0.0/seed_1.jsonl": "bcb383bece54073ed0ddce44ea18d447dccee3c42e1e0a3173903f1eebc2994f",
    "decoys_True/traces/end_only_checking_diffusion_rate_0.05/seed_0.jsonl": "93ab1a980c6f00f67c6cf621d7c69b046f2a31e009aea4c1b686d1cf333bdad1",
    "decoys_True/traces/end_only_checking_diffusion_rate_0.05/seed_1.jsonl": "bcb383bece54073ed0ddce44ea18d447dccee3c42e1e0a3173903f1eebc2994f",
    "decoys_True/traces/no_observer_model_diffusion_rate_0.0/seed_0.jsonl": "01033fd30c2272f9136784de07456da902ab909a63bea71241cf99feea4358d5",
    "decoys_True/traces/no_observer_model_diffusion_rate_0.0/seed_1.jsonl": "62db7cda8ebb0c7a1eec95ac6db5582654f9e60f4a911d21eab503e4c7cac88c",
    "decoys_True/traces/no_observer_model_diffusion_rate_0.05/seed_0.jsonl": "01033fd30c2272f9136784de07456da902ab909a63bea71241cf99feea4358d5",
    "decoys_True/traces/no_observer_model_diffusion_rate_0.05/seed_1.jsonl": "62db7cda8ebb0c7a1eec95ac6db5582654f9e60f4a911d21eab503e4c7cac88c",
}


def test_output_bytes_across_awareness_placement_decoys_and_diffusion(tmp_path):
    # Aware and unaware agents, in-loop and end-only monitors with a delay of
    # 3, with and without decoys, at diffusion 0 and 0.05. The threshold sits
    # just under the uniform mass, so the aware agent conceals until the
    # first sighting; its monitored caches are seen and recached.
    digests = {}
    for decoys in (True, False):
        config = parse_config(json.dumps({
            "family": "C", "seeds": "0..1",
            "env": {"caches": 6, "visibility": 0.6, "theta_obs": 0.0024, "monitor_delay": 3,
                    "verifier_fp": 0.1, "verifier_fn": 0.1},
            "agent": {"decoys": decoys},
            "ablations": ["no_observer_model", "end_only_checking"],
            "sweep": {"key": "diffusion_rate", "values": [0.0, 0.05]},
        }))
        out = tmp_path / f"decoys_{decoys}"
        write_report(run_grid(config, jobs=1), out)
        written = ["runs.jsonl"] + [
            path.relative_to(out).as_posix() for path in (out / "traces").rglob("*.jsonl")
        ]
        for name in written:
            text = (out / name).read_bytes()
            digests[f"decoys_{decoys}/{name}"] = hashlib.sha256(text).hexdigest()
    assert digests == LOOP_GRID_SHA256
