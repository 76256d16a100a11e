"""Liveness: every number a grid reports can move.

A metric, cost, objective, goal verdict, predicate ground truth or signal
field that reads the same in every cell of a stress grid cannot test the
hypothesis it stands for. Over its family's grid below, each one must take
at least two values or be named in ALLOWED_CONSTANT with the reason it
cannot. An allowed entry that does move fails too, so the list stays
current: the fix that brings a known dead number to life removes its entry.
"""

import json
import re

import pytest

from hoardbench.envs import STATUS_FAILED
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
    ("A", "truth:launch_in_range"): "known dead: the planner only scans offsets "
    "in [0, 1] at the configured impulse, so no launch is out of range",
    ("B", "objective"): "known dead: task_cost and latency_cost do not move, "
    "and compute is not in the objective",
    ("B", "goal_verdict"): "known dead: the precision_target verdict, never met under drift",
    ("B", "task_cost"): "known dead: a 0/1 step on precision >= 0.9, which "
    "drifted landmarks never reach",
    ("B", "truth:precision_target"): "known dead: as task_cost",
    ("B", "provenance_failures"): "known dead: retrieval_cites_written_episode "
    "only checks that the cited id exists",
    ("B", "truth:retrieval_cites_written_episode"): "known dead: as provenance_failures",
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
