import hashlib
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
from hoardbench.harness import _run_cell, parse_config, resolved_document, run_grid, write_report
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
    cfg = BeliefConfig(latent_prior_mean=0.5, latent_prior_variance=1e12)
    belief = initial_belief(cfg, 0.0, 0.0)
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


# sha256 of runs.jsonl and of each trace file the report writes for the grid
# below, recorded from the code whose belief kept its latents in arrays and
# its states as `EmbodiedState` tuples, with its own copy of the controller's
# compensator, RLS and forgetting settings.
SWITCHES_GRID_SHA256 = {
    "runs.jsonl": "0f20f14a915fa0c2d9d13e6265430ab0b4db6abb16d3a8ef0e487f0497501d15",
    "traces/baseline_obs_delay_0/seed_0.jsonl": "2bfed13120f73d7cec23810a2097d6d15b7e4ff81fc88a12a6ae1d1f8dab0df2",
    "traces/baseline_obs_delay_0/seed_1.jsonl": "2670e86ec634046c1151fec6b92a81f9ccdc39e91e88cddb6ace039f6498962f",
    "traces/baseline_obs_delay_10/seed_0.jsonl": "40f96af3c514c5ea2a8ebc43767c627963b21ec77cbbaf3440629495efc76d11",
    "traces/baseline_obs_delay_10/seed_1.jsonl": "f8f11c8c5c9ef227af3a1439239198732c34941c52e7a7e67830c0f5ceaf89ca",
    "traces/baseline_obs_delay_2/seed_0.jsonl": "c8c2d0197ed97ee01bbba3c3e6177a894f96704b710e1a0e85d27f76f22340c4",
    "traces/baseline_obs_delay_2/seed_1.jsonl": "950773bc4b13a09a234c705b73716abd6e00bf465865a8100cebf354bd0355a4",
    "traces/no_compensator_obs_delay_0/seed_0.jsonl": "2bfed13120f73d7cec23810a2097d6d15b7e4ff81fc88a12a6ae1d1f8dab0df2",
    "traces/no_compensator_obs_delay_0/seed_1.jsonl": "2670e86ec634046c1151fec6b92a81f9ccdc39e91e88cddb6ace039f6498962f",
    "traces/no_compensator_obs_delay_10/seed_0.jsonl": "419eee4ca4704515bfa584d233275cf593f7b4504bcea98ef4fc05f44502fc0e",
    "traces/no_compensator_obs_delay_10/seed_1.jsonl": "0aceda9b5bb13c401d1eab5662fd1140570020b9178b162e9f0038bbde16bf57",
    "traces/no_compensator_obs_delay_2/seed_0.jsonl": "220f88eec6403aeb7729174ef75bf784404cea4b5d3263d5e6d158bcbc39ff68",
    "traces/no_compensator_obs_delay_2/seed_1.jsonl": "b4f6cd30b7c403662e6d3be649037c2192b6aa6669ce362fb54452908a015d62",
    "traces/no_feedback_obs_delay_0/seed_0.jsonl": "29528014b596c717eecdc92ee48e31e2d9d3a8bc82e9f3164edb574d34c3cdfc",
    "traces/no_feedback_obs_delay_0/seed_1.jsonl": "f945029ca8b1730e66e4a7cdcff2f80c20649d6eac8c3de011bcf57d0c53b82c",
    "traces/no_feedback_obs_delay_10/seed_0.jsonl": "29528014b596c717eecdc92ee48e31e2d9d3a8bc82e9f3164edb574d34c3cdfc",
    "traces/no_feedback_obs_delay_10/seed_1.jsonl": "f945029ca8b1730e66e4a7cdcff2f80c20649d6eac8c3de011bcf57d0c53b82c",
    "traces/no_feedback_obs_delay_2/seed_0.jsonl": "29528014b596c717eecdc92ee48e31e2d9d3a8bc82e9f3164edb574d34c3cdfc",
    "traces/no_feedback_obs_delay_2/seed_1.jsonl": "f945029ca8b1730e66e4a7cdcff2f80c20649d6eac8c3de011bcf57d0c53b82c",
}


def test_output_bytes_across_delay_and_controller_switches(tmp_path):
    # Delays 0, 2 and 10 under feedback with and without the compensator and
    # open loop, RLS on, with drifting compliance and a perturbation.
    config = parse_config(json.dumps({
        "family": "A", "seeds": "0..1",
        "env": {"trials": 2, "z_drift": 0.05, "perturb_step": 60, "perturb_magnitude": 0.2},
        "agent": {"rls": True},
        "ablations": ["no_feedback", "no_compensator"],
        "sweep": {"key": "obs_delay", "values": [0, 2, 10]},
    }))
    write_report(run_grid(config, jobs=1), tmp_path)
    written = ["runs.jsonl"] + [
        path.relative_to(tmp_path).as_posix() for path in (tmp_path / "traces").rglob("*.jsonl")
    ]
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in written
    }
    assert digests == SWITCHES_GRID_SHA256


# sha256 of runs.jsonl and of each trace file the report writes for the grid
# below, recorded from the code whose stabilize steps each went to the trace
# as they ran: the baseline and open-loop cells run out of budget 113 steps
# into their second trial, the compensator-free cells finish all three.
BUDGET_GRID_SHA256 = {
    "runs.jsonl": "50955f4d98f5f0b46571b307960bb74ad2d7ef3039ae5461fb5a55f9790d105b",
    "traces/baseline/seed_0.jsonl": "db9ad14a6bfe77a9f20f68dd52bb881f91a3f7de3d3f86a767d16ce908e33cc3",
    "traces/baseline/seed_1.jsonl": "414b1f650249a21159d90e52cccf8cbb67bbeb5426d7c253c35524fe07731530",
    "traces/baseline/seed_2.jsonl": "98aa57328d4a625750a11cdfd547ebe9a5f91f0f7251003e3e33b4d111256b45",
    "traces/no_compensator/seed_0.jsonl": "41cc3e9ed9e0cb14e462523b454c22718c09fee9a7f8156094f4b4d3603d1e3f",
    "traces/no_compensator/seed_1.jsonl": "a63815eb29f26ddcbc32d2095ede6bb5de681592b256c3cce74ed8469e168357",
    "traces/no_compensator/seed_2.jsonl": "78f75336423cb6f751c0113e47de56f008adcb376a59dc3f5fb461075e850001",
    "traces/no_feedback/seed_0.jsonl": "ec907574c0fd1f3adc04df576d86271160460d51b048a9f5dafb156a9bc073ad",
    "traces/no_feedback/seed_1.jsonl": "3128e3de047116b66502e1663d97df5f44d6540aad461fdb3d3298a0ed07bc92",
    "traces/no_feedback/seed_2.jsonl": "ed79667991048309633f5b76afd704293197d58dc0137c7af9c598db62e55b8f",
}


def test_output_bytes_where_the_budget_ends_a_trial_early(tmp_path):
    # Three trials under a compute budget of 800: delay 2 with the
    # compensator costs 2 units a step, so the budget runs out mid-trial.
    config = parse_config(json.dumps({
        "family": "A", "seeds": "0..2",
        "env": {"trials": 3, "perturb_step": 60, "perturb_magnitude": 0.2},
        "agent": {"rls": True},
        "ledger": {"budget": 800},
        "ablations": ["no_feedback", "no_compensator"],
    }))
    write_report(run_grid(config, jobs=1), tmp_path)
    runs = [json.loads(line) for line in (tmp_path / "runs.jsonl").read_text().splitlines()]
    assert [r["status"] for r in runs] == ["budget_exhausted"] * 6 + ["completed"] * 3
    written = ["runs.jsonl"] + [
        path.relative_to(tmp_path).as_posix() for path in (tmp_path / "traces").rglob("*.jsonl")
    ]
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in written
    }
    assert digests == BUDGET_GRID_SHA256
