import json
import math

import numpy as np
import pytest

from hoardbench.core.state import ConfigurationError, Trace
from hoardbench.envs.family_b import FamilyBConfig, run_family_b
from hoardbench.harness import parse_config
from hoardbench.ledger import CostLedger


def _ledger():
    return CostLedger()


def test_singleton_store_is_perfect():
    env = FamilyBConfig(n_events=1)
    for variant in ("flat", "clustered"):
        record = run_family_b(env, variant, _ledger(), seed=0)
        assert record.metrics["precision"] == 1.0
        assert record.metrics["confusion_rate"] == 0.0
        assert record.metrics["probes_mean"] == 1.0


def test_noiseless_recall_is_exact_for_both_variants():
    env = FamilyBConfig(n_events=256, landmark_drift=0.0, conflict_rate=0.0)
    for variant in ("flat", "clustered"):
        record = run_family_b(env, variant, _ledger(), seed=1)
        assert record.metrics["precision"] == 1.0
        assert record.metrics["confusion_rate"] == 0.0


def test_variants_store_identical_episode_sets():
    # The indexing ablation changes access structure only.
    env = FamilyBConfig(n_events=128, conflict_rate=0.25)
    flat = run_family_b(env, "flat", _ledger(), seed=3)
    clustered = run_family_b(env, "clustered", _ledger(), seed=3)
    assert flat.metrics["episodes_stored"] == clustered.metrics["episodes_stored"]
    # Same ground truth, same queries: precision under zero drift matches.
    assert flat.metrics["precision"] == clustered.metrics["precision"]


def test_degradation_monotone_in_drift_and_conflict():
    # Precision is non-increasing along each axis of a 3x3 stress grid,
    # ties allowed. Drift levels sit in the graded-degradation regime; at
    # extreme drift a wrong-but-nearby episode can outscore a doomed decode
    # of the right one, which is interference, not monotone degradation.
    drifts = (0.0, 0.01, 0.02)
    conflicts = (0.0, 0.5, 1.0)
    seeds = range(10)
    grid = {}
    for d in drifts:
        for c in conflicts:
            env = FamilyBConfig(n_events=192, landmark_drift=d, conflict_rate=c)
            vals = [
                run_family_b(env, "clustered", _ledger(), s).metrics["precision"]
                for s in seeds
            ]
            grid[(d, c)] = float(np.mean(vals))
    tie_tol = 0.008  # distractor draws differ across conflict levels
    for c in conflicts:
        assert grid[(0.0, c)] + tie_tol >= grid[(0.01, c)]
        assert grid[(0.01, c)] + tie_tol >= grid[(0.02, c)]
    for d in drifts:
        assert grid[(d, 0.0)] + tie_tol >= grid[(d, 0.5)]
        assert grid[(d, 0.5)] + tie_tol >= grid[(d, 1.0)]


def test_probe_accounting_flat_scans_same_type():
    env = FamilyBConfig(n_events=200, item_types=4)
    record = run_family_b(env, "flat", _ledger(), seed=2)
    assert record.metrics["probes_mean"] == pytest.approx(200 / 4, rel=0.3)


def test_kappa_conservation_and_costs():
    env = FamilyBConfig(n_events=64, conflict_rate=0.5)
    record = run_family_b(env, "clustered", _ledger(), seed=0)
    assert sum(record.kappa_by_source.values()) == pytest.approx(
        record.costs["compute_used"]
    )


def test_goal_verdict_follows_precision_target():
    good = run_family_b(FamilyBConfig(n_events=64), "clustered", _ledger(), 0)
    assert good.goal_verdict == 1
    bad = run_family_b(
        FamilyBConfig(n_events=512, landmark_drift=0.08, conflict_rate=1.0,
                      precision_target=0.95),
        "flat", _ledger(), 0,
    )
    assert bad.goal_verdict == 0


def test_reproducible_including_trace():
    env = FamilyBConfig(n_events=32)
    t1, t2 = Trace(), Trace()
    r1 = run_family_b(env, "clustered", _ledger(), 5, trace=t1)
    r2 = run_family_b(env, "clustered", _ledger(), 5, trace=t2)
    assert r1.to_json_line() == r2.to_json_line()
    assert t1.to_jsonl() == t2.to_jsonl()


def test_config_validation():
    with pytest.raises(ConfigurationError, match="n_events"):
        FamilyBConfig(n_events=0)
    with pytest.raises(ConfigurationError, match="dig_radius"):
        FamilyBConfig(dig_radius=0.0)
    with pytest.raises(ConfigurationError, match="landmark_count"):
        FamilyBConfig(landmark_count=2)
    with pytest.raises(ConfigurationError, match="verifier_fp"):
        FamilyBConfig(verifier_fp=0.5, verifier_fn=0.5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_events", 2.5),
        ("n_events", True),
        ("item_types", 3.5),
        ("item_types", 0),
        ("landmark_count", 4.0),
        ("query_delay", -5),
        ("query_delay", 1.5),
        ("verifier_delay", -1),
        ("landmark_drift", math.nan),
        ("landmark_drift", -0.01),
        ("landmark_drift", True),
        ("conflict_rate", math.inf),
        ("conflict_rate", -1.0),
        ("conflict_rate", "0.5"),
        ("dig_radius", math.nan),
        ("precision_target", math.nan),
        ("precision_target", 1.5),
        ("verifier_fp", 1.0),
        ("verifier_fn", -0.1),
    ],
)
def test_config_rejects_bad_values_by_field_name(field, value):
    with pytest.raises(ConfigurationError, match=field):
        FamilyBConfig(**{field: value})
    with pytest.raises(ConfigurationError, match=field):
        parse_config(json.dumps({"family": "B", "env": {field: value}}))


def test_jobs_do_not_change_output_bytes(outputs_by_jobs):
    # Both variants, drift and distractors, with failure traces recorded.
    outputs = outputs_by_jobs({
        "family": "B",
        "seeds": "0..3",
        "env": {"n_events": 48, "landmark_drift": 0.02, "conflict_rate": 0.5},
        "ablations": ["flat_archive"],
    })
    files, _ = outputs[1]
    assert sum(name.startswith("traces/") for name in files) == 6
    assert outputs[1] == outputs[2]
