import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoardbench.controller import ControllerConfig
from hoardbench.core.state import ConfigurationError, Trace
from hoardbench.envs.family_a import (
    FamilyAConfig,
    LaunchPlanner,
    predicted_landing_error,
    run_family_a,
)
from hoardbench.core.belief import BeliefConfig, initial_belief
from hoardbench.core.policy import PolicyContext
from hoardbench.core.state import EmbodiedState
from hoardbench.harness import _run_cell, parse_config, resolved_document
from hoardbench.ledger import CostLedger
from hoardbench.rng import RunStreams, Substream

OPEN_LOOP = ControllerConfig(feedback_enabled=False, compensator_enabled=False)
FEEDBACK = ControllerConfig()


def _ledger():
    return CostLedger()


def test_open_loop_succeeds_at_prior_compliance_with_zero_interventions():
    env = FamilyAConfig(z_range=(0.5, 0.5), obs_noise=0.0, obs_delay=0)
    record = run_family_a(env, OPEN_LOOP, _ledger(), seed=3)
    assert record.metrics["success_rate"] == 1.0
    assert record.metrics["intervention_count"] == 0.0


def test_launch_grid_argmin_matches_brute_force_oracle():
    env = FamilyAConfig()
    planner = LaunchPlanner(env)
    cfg = BeliefConfig(
        observation_keys=("error", "error_rate"),
        latent_names=("compliance",),
        latent_prior_mean=(0.5,),
        latent_prior_variance=(1e12,),
    )
    belief = initial_belief(cfg, EmbodiedState((0.0,), (0.0,)))
    ctx = PolicyContext(rng=RunStreams(0).agent)
    option = planner.select(belief, ctx)
    # Oracle: independent brute-force scan of the physics formula.
    offsets = np.linspace(0.0, 1.0, env.launch_grid)
    preds = np.abs(
        env.impulse * (1.0 - 0.5 * offsets**2) - env.gap_scale * (1.0 - offsets)
    )
    assert option.params["offset"] == pytest.approx(offsets[int(np.argmin(preds))])
    assert option.params["impulse"] == env.impulse


def test_open_loop_fails_beyond_tolerance_band():
    # Analytic band: |e0| = u * l^2 * |z - z_hat| must exceed pos_tol.
    env = FamilyAConfig(z_range=(0.8, 0.8), obs_noise=0.0, obs_delay=0)
    offset = 0.72
    shift = env.impulse * offset * offset * (0.8 - 0.5)
    assert shift > env.pos_tol  # certainty condition
    record = run_family_a(env, OPEN_LOOP, _ledger(), seed=1)
    assert record.metrics["success_rate"] == 0.0


def test_perturbation_without_control_fails():
    env = FamilyAConfig(
        z_range=(0.5, 0.5), obs_noise=0.0, obs_delay=0,
        perturb_step=50, perturb_magnitude=0.3,
    )
    record = run_family_a(env, OPEN_LOOP, _ledger(), seed=5)
    assert record.metrics["success_rate"] == 0.0


def test_velocity_constant_after_perturbation_without_control():
    # Double-integrator conservation: with control off, the only velocity
    # change over the whole trial is the injected impulse.
    env = FamilyAConfig(
        z_range=(0.5, 0.5), obs_noise=0.0, obs_delay=0,
        perturb_step=30, perturb_magnitude=0.25, horizon=120,
    )
    trace = Trace()
    run_family_a(env, OPEN_LOOP, _ledger(), seed=5, trace=trace)
    # Velocity reconstructed from consecutive noiseless observations.
    errs = [r.observation.values["error_rate"] for r in trace.records]
    assert errs[0] == 0.0
    assert errs[29] == pytest.approx(0.0, abs=1e-12)
    for k in range(31, 120):
        assert errs[k] == pytest.approx(0.25, abs=1e-12)


def test_feedback_recovers_from_perturbation():
    env = FamilyAConfig(
        z_range=(0.5, 0.5), perturb_step=50, perturb_magnitude=0.3,
    )
    record = run_family_a(env, FEEDBACK, _ledger(), seed=5)
    assert record.metrics["success_rate"] == 1.0
    assert record.costs["repair_cost"] > 0.0


def test_capture_region_across_compliance_grid():
    # With feedback on, stabilization succeeds for every compliance in the
    # declared range (grid over z in {0, 0.1, ..., 1}).
    for z in np.linspace(0.0, 1.0, 11):
        env = FamilyAConfig(z_range=(float(z), float(z)))
        record = run_family_a(env, FEEDBACK, _ledger(), seed=7)
        assert record.metrics["success_rate"] == 1.0, f"failed at z={z}"


def test_cross_trial_adaptation_with_rls():
    # With adaptation on, later trials launch from a corrected compliance
    # estimate and recover open-loop-level landing accuracy.
    rls_agent = ControllerConfig(rls_enabled=True)
    env = FamilyAConfig(z_range=(0.8, 0.8), trials=4)
    adapted = run_family_a(env, rls_agent, _ledger(), seed=2)
    frozen = run_family_a(env, FEEDBACK, _ledger(), seed=2)
    # Same success, but adaptation cuts stabilization latency.
    assert adapted.metrics["success_rate"] == 1.0
    assert (
        adapted.metrics["time_to_stabilization"]
        < frozen.metrics["time_to_stabilization"]
    )


def test_ablation_purity_draw_counts():
    # Toggling controller components must not move the env, adversary, or
    # verifier streams. Draw counts are compared via instrumented reruns.
    from hoardbench.envs import family_a as mod

    counts = {}
    for name, agent in (
        ("baseline", FEEDBACK),
        ("no_feedback", OPEN_LOOP),
        ("no_compensator", ControllerConfig(compensator_enabled=False)),
        ("rls", ControllerConfig(rls_enabled=True)),
    ):
        captured = {}
        original = mod.RunStreams

        class Counting(original):  # noqa: N801
            def __init__(self, seed):
                super().__init__(seed)
                captured["streams"] = self

        mod.RunStreams = Counting
        try:
            run_family_a(FamilyAConfig(), agent, _ledger(), seed=9)
        finally:
            mod.RunStreams = original
        counts[name] = captured["streams"].draw_counts()

    base = counts["baseline"]
    for name, c in counts.items():
        for stream in ("env", "adversary", "verifier"):
            assert c[stream] == base[stream], (name, stream, c, base)
    # Per trial: the compliance draw, the landing noise, one noise block.
    assert base["env"] == 3 * FamilyAConfig().trials


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.sampled_from((1, 2, 7, 240, 1000)))
def test_block_noise_draw_matches_per_step_draws(seed, horizon):
    block, per_step = Substream(seed, "env"), Substream(seed, "env")
    values = block.normal(0.0, 1.0, size=(horizon, 2)).tolist()
    expected = [[float(v) for v in per_step.normal(0.0, 1.0, size=2)] for _ in range(horizon)]
    assert values == expected
    assert block.normal() == per_step.normal()
    assert block.uniform(0.2, 0.8) == per_step.uniform(0.2, 0.8)


def test_reproducibility_and_trace_determinism():
    env = FamilyAConfig(trials=2)
    t1, t2 = Trace(), Trace()
    r1 = run_family_a(env, FEEDBACK, _ledger(), seed=11, trace=t1)
    r2 = run_family_a(env, FEEDBACK, _ledger(), seed=11, trace=t2)
    assert r1.to_json_line() == r2.to_json_line()
    assert t1.to_jsonl() == t2.to_jsonl()


def test_kappa_conservation():
    record = run_family_a(FamilyAConfig(trials=2), FEEDBACK, _ledger(), seed=4)
    assert sum(record.kappa_by_source.values()) == pytest.approx(
        record.costs["compute_used"]
    )


def test_budget_exhaustion_outcome():
    record = run_family_a(FamilyAConfig(), FEEDBACK, CostLedger(budget=150.0), seed=0)
    assert record.status == "budget_exhausted"


def test_config_validation():
    with pytest.raises(ConfigurationError):
        FamilyAConfig(pos_tol=0.0)
    with pytest.raises(ConfigurationError):
        FamilyAConfig(z_range=(0.9, 0.2))
    with pytest.raises(ConfigurationError):
        FamilyAConfig(obs_delay=-1)


def test_observation_noise_follows_per_step_draw_order():
    # Open loop, the plant never sees an observation, so the noiseless run
    # gives the true error at every step and the noisy run adds exactly the
    # env stream's noise, drawn per trial as: compliance, landing pair, then
    # one pair per step.
    env = dict(trials=3, horizon=40, obs_delay=1)
    clean, noisy = Trace(), Trace()
    run_family_a(FamilyAConfig(obs_noise=0.0, **env), OPEN_LOOP, _ledger(), 6, trace=clean)
    run_family_a(FamilyAConfig(obs_noise=1.0, **env), OPEN_LOOP, _ledger(), 6, trace=noisy)
    reference = Substream(6, "env")
    expected = []
    for _ in range(env["trials"]):
        reference.uniform(0.2, 0.8)
        for _ in range(env["horizon"] + 1):
            expected.append(reference.normal(0.0, 1.0, size=2).tolist())
    observed = [
        [n.observation.values[key] - c.observation.values[key] for key in ("error", "error_rate")]
        for c, n in zip(clean.records, noisy.records)
    ]
    assert len(observed) == len(expected)
    assert np.allclose(observed, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials", 2.5),
        ("trials", True),
        ("trials", 0),
        ("horizon", 10.5),
        ("horizon", 0),
        ("obs_delay", 1.5),
        ("launch_grid", 2.5),
        ("launch_grid", 1),
        ("launch_grid", 0),
        ("hold_steps", 0),
        ("hold_steps", -1),
        ("hold_steps", 241),
        ("perturb_step", 2.5),
        ("perturb_step", 0),
        ("perturb_step", 241),
        ("obs_delay", -1),
        ("impulse", True),
        ("impulse", -0.1),
        ("obs_noise", -0.1),
        ("obs_noise", math.nan),
        ("obs_noise", math.inf),
        ("z_drift", -0.5),
        ("dt", math.nan),
        ("dt", math.inf),
        ("dt", 0.0),
        ("gap_scale", math.nan),
        ("gap_scale", -math.inf),
        ("gap_scale", 0.0),
        ("pos_tol", math.nan),
        ("pos_tol", 0.0),
        ("vel_tol", -1.0),
        ("perturb_magnitude", math.inf),
        ("z_prior_mean", math.nan),
        ("z_prior_variance", -1),
        ("verifier_fp", 1.0),
        ("verifier_fn", "0.1"),
        ("z_range", (0.9, 0.2)),
        ("z_range", (0.2, 1.5)),
        ("z_range", (0.2,)),
        ("z_range", (math.nan, 0.5)),
        ("z_range", (True, 1.0)),
    ],
)
def test_config_rejects_bad_values_by_field_name(field, value):
    with pytest.raises(ConfigurationError, match=field):
        FamilyAConfig(**{field: value})
    with pytest.raises(ConfigurationError, match=field):
        parse_config(json.dumps({"family": "A", "env": {field: value}}))


def test_config_rejects_uninformative_verifier():
    with pytest.raises(ConfigurationError, match="verifier_fp"):
        FamilyAConfig(verifier_fp=0.5, verifier_fn=0.5)
    with pytest.raises(ConfigurationError, match="verifier_fp"):
        parse_config(json.dumps({"family": "A", "env": {"verifier_fp": 0.6, "verifier_fn": 0.4}}))
    # Edge values that still run.
    FamilyAConfig(
        horizon=3, hold_steps=3, perturb_step=3, launch_grid=2, obs_noise=0.0,
        z_drift=0.0, z_range=(0, 1), z_prior_variance=0.0, perturb_magnitude=-1.0,
        verifier_fp=0.49, verifier_fn=0.5,
    )


# The accepted-configs property draws each key mostly from a range around
# its valid values, sometimes from a pool of wrong types and non-finite
# values. Magnitudes stay where the dynamics remain finite over a short
# horizon.
_WILD = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, True, False, None, "1", 2.5])


def _mostly(valid):
    return st.one_of(*[valid] * 7, _WILD)


_COUNT = _mostly(st.integers(0, 30))
_REAL = _mostly(st.floats(-0.5, 3.0, allow_subnormal=False))
_RATE = _mostly(st.floats(-0.1, 0.7))
_ENV_KEYS = {
    "gap_scale": _REAL, "obs_delay": _COUNT, "obs_noise": _REAL, "perturb_step": _COUNT,
    "perturb_magnitude": _REAL, "pos_tol": _REAL, "vel_tol": _REAL, "dt": _REAL,
    "impulse": _REAL, "hold_steps": _COUNT, "launch_grid": _COUNT, "z_drift": _REAL,
    "z_prior_mean": _REAL, "z_prior_variance": _REAL,
    "verifier_fp": _RATE, "verifier_fn": _RATE,
    "z_range": st.lists(st.floats(-0.2, 1.2), min_size=2, max_size=2),
}
_AGENT_KEYS = {
    "feedback": st.booleans(), "compensator": st.booleans(), "rls": st.booleans(),
    "kp": _mostly(st.floats(-1.0, 20.0)), "kd": _mostly(st.floats(-1.0, 20.0)),
    "action_bound": _mostly(st.floats(-1.0, 20.0)),
    "forgetting": _mostly(st.floats(0.85, 1.05)),
}


def _some_keys(draw, strategies, max_size):
    keys = draw(st.lists(st.sampled_from(sorted(strategies)), max_size=max_size, unique=True))
    return {key: draw(strategies[key]) for key in keys}


@st.composite
def _family_a_documents(draw):
    env = _some_keys(draw, _ENV_KEYS, 4)
    env["trials"] = 1
    env["horizon"] = draw(st.integers(5, 30))
    agent = _some_keys(draw, _AGENT_KEYS, 2)
    ledger = _some_keys(draw, {"budget": _mostly(st.floats(-1.0, 600.0))}, 1)
    return {"family": "A", "seeds": 0, "env": env, "agent": agent, "ledger": ledger}


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_family_a_documents())
def test_every_accepted_config_runs_without_failed_cells(document):
    try:
        config = parse_config(json.dumps(document))
    except ConfigurationError:
        return
    assert parse_config(json.dumps(resolved_document(config))) == config
    record, _, _ = _run_cell((config, "baseline", config.agent, None, 0))
    assert record.status != "failed", record.error


def test_jobs_do_not_change_output_bytes(outputs_by_jobs):
    # All three variants with RLS on, noisy in-loop verifiers, a perturbation,
    # and failure traces recorded.
    outputs = outputs_by_jobs({
        "family": "A",
        "seeds": "0..3",
        "env": {"trials": 2, "perturb_step": 60, "perturb_magnitude": 0.2,
                "verifier_fp": 0.1, "verifier_fn": 0.1},
        "agent": {"rls": True},
        "ablations": ["no_feedback", "no_compensator"],
    })
    files, _ = outputs[1]
    assert files["runs.jsonl"].count(b"\n") == 12
    assert sum(name.startswith("traces/") for name in files) == 9
    assert outputs[1] == outputs[2]


def test_traces_recorded_in_the_grid_match_the_replay(outputs_by_jobs):
    # One seed lists every cell, so every trace the grid records is written;
    # `report --in` replays them and is the oracle.
    outputs = outputs_by_jobs({
        "family": "A",
        "seeds": "5..5",
        "env": {"trials": 2, "perturb_step": 60, "perturb_magnitude": 0.2,
                "verifier_fp": 0.1, "verifier_fn": 0.1},
        "agent": {"rls": True},
        "ablations": ["no_feedback", "no_compensator"],
    })
    files, _ = outputs[1]
    assert sum(name.startswith("traces/") for name in files) == 3
    assert outputs[1] == outputs[2]


def test_goal_verdict_tracks_postcondition():
    good = run_family_a(FamilyAConfig(z_range=(0.5, 0.5)), FEEDBACK, _ledger(), 0)
    assert good.goal_verdict == 1
    bad = run_family_a(
        FamilyAConfig(z_range=(0.8, 0.8)), OPEN_LOOP, _ledger(), 0
    )
    assert bad.goal_verdict == 0
    assert any(s["predicate_id"] == "stabilized" for s in good.signals)


def test_predicted_landing_error_formula():
    env = FamilyAConfig()
    # Spot check the physics used by both planner and environment.
    assert predicted_landing_error(env, 0.0, 0.0) == pytest.approx(
        env.impulse - env.gap_scale
    )
    assert predicted_landing_error(env, 1.0, 1.0) == pytest.approx(0.0 * env.gap_scale
        + env.impulse * (1.0 - 1.0)
    )
