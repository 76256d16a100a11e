"""Liveness: every number a grid reports can move.

A metric, cost, objective, goal verdict, predicate ground truth or signal
field that reads the same in every cell of a stress grid cannot test the
hypothesis it stands for. Over its family's grid below, each one must take
at least two values or be named in ALLOWED_CONSTANT with the reason it
cannot. An allowed entry that does move fails too, so the list stays
current: the fix that brings a known dead number to life removes its entry.

Likewise every agent switch must move a record: each bool agent key
flipped, and each other value of a string key, must change some record of
the family's grid beyond its variant label and signal emission times. So
must every env key set to its value in ENV_PROBES, or it is named in
ALLOWED_STILL with the reason it cannot, under the same two-sided rule.
"""

import dataclasses
import json
import re

import pytest

from hoardbench.envs import FAMILIES, STATUS_FAILED
from hoardbench.harness import parse_config, run_grid

NOISY = {"verifier_fp": 0.2, "verifier_fn": 0.2}

# One world per family, varied only by seed and ablation. A's perturbation
# makes the controller clamp and repair; C's watcher sees most digs.
GRIDS = {
    "A": {
        "family": "A", "seeds": "0..2",
        "env": {"trials": 2, "z_drift": 0.05, "perturb_step": 30, "perturb_magnitude": 3.0, **NOISY},
        "agent": {"action_bound": 3.0}, "ledger": {"budget": 400},
        "ablations": ["no_feedback", "no_compensator"],
    },
    "B": {
        "family": "B", "seeds": "0..3",
        "env": {"n_events": 256, "landmark_drift": 0.05, "conflict_rate": 0.5, **NOISY},
        "ablations": ["flat_archive"],
    },
    "C": {
        "family": "C", "seeds": "0..2",
        "env": {"caches": 10, "pilfer_budget": 6, "visibility": 0.9, **NOISY},
        "ablations": ["no_observer_model", "end_only_checking"],
    },
    "D": {
        "family": "D", "seeds": "0..9", "env": {"n_constraints": 20},
        "agent": {"checker_fp": 0.2, "checker_fn": 0.2}, "ablations": ["single_agent"],
    },
}

ALLOWED_CONSTANT = {
    # Known dead: each needs a model fix that changes runs.jsonl bytes.
    ("B", "objective"): "known dead: task_cost and latency_cost do not move, "
    "and compute is not in the objective",
    # B's goal_verdict moves on this grid only through the verifier's
    # fn flips; its ground truth is truth:precision_target, below.
    ("B", "task_cost"): "known dead: a 0/1 step on precision >= 0.9, which "
    "drifted landmarks never reach",
    ("B", "truth:precision_target"): "known dead: as task_cost",
    ("B", "signal:ground_truth_verdict"): "known dead: as truth:precision_target, "
    "B's only check",
    # Structural: fixed by the family's design or echoing the config.
    ("A", "leak_cost"): "structural: nothing in family A is watched",
    ("B", "leak_cost"): "structural: nothing in family B is watched",
    ("D", "leak_cost"): "structural: nothing in family D is watched",
    ("B", "repair_cost"): "structural: family B never repairs",
    ("A", "trials"): "structural: echoes env.trials",
    ("B", "latency_cost"): "structural: one unit per write and per query, "
    "fixed by n_events and conflict_rate",
    ("B", "episodes_stored"): "structural: every write is stored, "
    "fixed by n_events and conflict_rate",
    ("B", "signal:segment"): "structural: one whole-run check, "
    "whose length n_events, conflict_rate and query_delay fix",
    ("B", "signal:emitted_at"): "structural: as signal:segment",
    ("C", "latency_cost"): "structural: the caching phase always runs its full horizon",
}


def _reported_values(grid: dict) -> dict[str, set]:
    """Every reported name -> the set of values it took over the grid.
    Family D names its constraint predicates c0, c1, ... per seed's
    universe, so they count as one predicate. A signal field but the
    predicate id counts over all of the family's predicates, JSON-encoded
    because `segment` is a list."""
    values: dict[str, set] = {}
    for cell in run_grid(parse_config(json.dumps(grid))).cells:
        record = cell.record
        assert record.status != STATUS_FAILED, record.error
        named = {**record.metrics, **record.costs}
        named["objective"] = record.objective
        named["goal_verdict"] = record.goal_verdict
        for name, value in named.items():
            values.setdefault(name, set()).add(value)
        for signal in record.signals:
            predicate = re.sub(r"^c\d+$", "c<k>", signal["predicate_id"])
            values.setdefault(f"truth:{predicate}", set()).add(signal["ground_truth_verdict"])
            for field, value in signal.items():
                if field != "predicate_id":
                    values.setdefault(f"signal:{field}", set()).add(json.dumps(value))
    return values


@pytest.mark.parametrize("family", sorted(GRIDS))
def test_every_reported_number_moves_or_is_allowed_constant(family):
    values = _reported_values(GRIDS[family])
    allowed = {name for fam, name in ALLOWED_CONSTANT if fam == family}
    constant = {name for name, seen in values.items() if len(seen) < 2}
    assert constant - allowed == set(), "constant over the grid, not allow-listed"
    assert allowed - constant == set(), "allow-listed, yet it moves or is gone"


def _switches(family: str):
    """(agent key, value) for every bool agent key flipped, and for every
    other value of each choices key."""
    entry = FAMILIES[family]
    for key, default in entry.agent.items():
        if isinstance(default, bool):
            yield key, not default
    for key, values in entry.choices.items():
        yield from ((key, value) for value in values if value != entry.agent[key])


def _comparable(record) -> dict:
    """A record as JSON, without its variant label and signal emission
    times, which move without moving anything a metric reads."""
    obj = json.loads(record.to_json_line())
    del obj["variant"]
    for signal in obj["signals"]:
        del signal["emitted_at"]
    return obj


@pytest.mark.parametrize("family", sorted(GRIDS))
def test_every_switch_moves_a_record(family):
    # Baseline only, and without the ledger block: A's budget of 400 ends
    # its runs before RLS can move anything.
    grid = {k: v for k, v in GRIDS[family].items() if k not in ("ablations", "ledger")}
    agent = grid.pop("agent", {})

    def records(overrides: dict) -> list[dict]:
        config = parse_config(json.dumps({**grid, "agent": {**agent, **overrides}}))
        return [_comparable(cell.record) for cell in run_grid(config).cells]

    baseline = records({})
    still = [f"{key}={value}" for key, value in _switches(family) if records({key: value}) == baseline]
    assert still == [], "an agent switch that moves no record"


# One alternative value per env key of each family. Set over the family's
# grid env, it must move some record of the grid.
ENV_PROBES = {
    "A": {
        "gap_scale": 1.5, "z_range": (0.3, 0.7), "obs_delay": 3, "obs_noise": 0.03,
        "perturb_step": 10, "perturb_magnitude": 4.5, "trials": 3, "pos_tol": 0.03,
        "vel_tol": 0.05, "horizon": 241, "dt": 0.075, "impulse": 0.5, "hold_steps": 6,
        "launch_grid": 102, "z_drift": 0.075, "z_prior_mean": 0.75, "z_prior_variance": 1.0,
        "verifier_fp": 0.3, "verifier_fn": 0.3,
    },
    "B": {
        "n_events": 257, "item_types": 9, "landmark_count": 26, "query_delay": 51,
        "landmark_drift": 0.075, "conflict_rate": 0.75, "dig_radius": 0.075,
        "precision_target": 0.45, "verifier_fp": 0.3, "verifier_fn": 0.3,
    },
    "C": {
        "caches": 11, "pilfer_budget": 7, "visibility": 0.5, "decoy_cost": 1.5,
        "conceal_wait_cost": 5, "recovery_horizon": 1, "landmark_count": 26, "item_types": 5,
        "dig_radius": 0.3, "diffusion_rate": 0.03, "theta_obs": 0.0,
        "forbidden_zone": (5, 5, 9, 9), "recovered_target": 0.75, "monitor_delay": 11,
        "verifier_fp": 0.3, "verifier_fn": 0.3,
    },
    "D": {
        "n_constraints": 21, "plan_length": 13, "alphabet_size": 7, "coverage": 0.3,
        "knowledge_fraction": 0.9, "adversary_probes": 10,
    },
}

# Env keys a probe is compared under, on both sides, where the probed key
# acts only once another lets it: only a deferring agent waits, and at the
# grid's theta_obs of 0.02 the aware agent never defers.
PROBE_CONTEXT = {("C", "conceal_wait_cost"): {"theta_obs": 0.0}}

ALLOWED_STILL = {
    ("A", "z_prior_variance"): "only RLS reads it, and the grid's agent runs without rls",
    ("B", "verifier_fp"): "known dead: it acts only on a check whose ground truth "
    "passes, and B's one check never passes",
    ("C", "dig_radius"): "C's landmarks never drift, so a recovery's decode is exact "
    "unless retrieval returns another cache's episode",
}


@pytest.mark.parametrize("family", sorted(GRIDS))
def test_every_env_key_moves_a_record_or_is_allowed_still(family):
    defaults = {f.name: f.default for f in dataclasses.fields(FAMILIES[family].env_config)}
    assert set(ENV_PROBES[family]) == set(defaults), "every env key has one probe value"
    grid = GRIDS[family]
    env = {**defaults, **grid["env"]}

    def records(overrides: dict) -> list[dict]:
        config = parse_config(json.dumps({**grid, "env": {**grid["env"], **overrides}}))
        return [_comparable(cell.record) for cell in run_grid(config).cells]

    baseline = records({})
    still = set()
    for key, value in ENV_PROBES[family].items():
        context = PROBE_CONTEXT.get((family, key), {})
        assert value != env[key] and key not in context
        if records({**context, key: value}) == (records(context) if context else baseline):
            still.add(key)
    allowed = {key for fam, key in ALLOWED_STILL if fam == family}
    assert still - allowed == set(), "an env key that moves no record"
    assert allowed - still == set(), "allow-listed, yet it moves a record"
