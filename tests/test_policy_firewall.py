"""Interface audit: policies can see beliefs and retrievals, never truth.

Most of these tests inspect the policy API surface rather than behavior: no
policy entry point may accept or reach ground-truth latents or environment
state. One runs family C, whose agent alone reads verifier signals, to check
that it acts on a signal's verdict and never on its ground-truth verdict.
"""

import inspect
import typing

from hoardbench import verifier
from hoardbench.core.belief import Belief
from hoardbench.core.policy import (
    OptionPolicy,
    PolicyContext,
    PrimitivePolicy,
    act,
    form_queries,
    form_query,
    select_option,
)
from hoardbench.envs import family_a, family_b, family_c
from hoardbench.envs.family_a import LaunchPlanner, FamilyAConfig
from hoardbench.envs.family_b import FamilyBConfig, RetrievalGoalPolicy
from hoardbench.envs.family_c import CacheSitePolicy, FamilyCConfig
from hoardbench.ledger import CostLedger
from hoardbench.memory import MemoryStore, Retrieval
from hoardbench.rng import RunStreams

# Compared by identity, so a type that is deleted breaks this import rather
# than leaving a name that can never match.
FORBIDDEN_TYPES = (MemoryStore, CostLedger, RunStreams)

OPTION_POLICIES = [
    LaunchPlanner(FamilyAConfig()),
    RetrievalGoalPolicy([(1, 0.5, 0.5)]),
    CacheSitePolicy(0.02, 2, set()),
]
ENTRY_POINTS = [
    *(policy.select for policy in OPTION_POLICIES),
    OptionPolicy.select,
    PrimitivePolicy.act,
    select_option,
    act,
    form_query,
    form_queries,
    PolicyContext,
]


def _hint_types(obj) -> set:
    """Every type named in `obj`'s resolved annotations, unions and generic
    arguments flattened."""
    found = set()
    pending = list(typing.get_type_hints(obj).values())
    while pending:
        hint = pending.pop()
        found.add(hint)
        found.add(typing.get_origin(hint))
        pending.extend(typing.get_args(hint))
    return found


def _forbidden(obj) -> list:
    types = _hint_types(obj)
    return [t for t in FORBIDDEN_TYPES if any(t is u for u in types)]


def test_audit_sees_a_forbidden_type_inside_a_union_or_generic():
    def leaky(belief: Belief, ledger: "CostLedger | None", stores: "list[MemoryStore]"):
        pass

    assert _forbidden(leaky) == [MemoryStore, CostLedger]


def test_option_policies_conform_to_protocol():
    for policy in OPTION_POLICIES:
        assert isinstance(policy, OptionPolicy)


# Tiny cells of each family and the ablations whose runners build their
# policies differently: A with and without feedback (an open-loop plan), B
# on both stores, C observer-aware.
TINY_CELLS = [
    (family_a, FamilyAConfig(trials=2, horizon=20), (None, "no_feedback")),
    (family_b, FamilyBConfig(n_events=16), (None, "flat_archive")),
    (family_c, FamilyCConfig(caches=3), (None,)),
]


def test_runners_build_only_audited_policies(monkeypatch):
    """Every policy a runner hands to `select_option` is of a class this
    audit inspects, and implements the option-policy protocol. (No runner
    calls `act`: family A's stabilize loop takes its force from
    `pd_feedback` or its open-loop plan, through no policy object.)"""
    seen = []

    def record(policy, *args):
        seen.append(policy)
        return select_option(policy, *args)

    for module, env, ablations in TINY_CELLS:
        monkeypatch.setattr(module, "select_option", record)
        for ablation in ablations:
            agent = dict(module.FAMILY.agent)
            if ablation is not None:
                key, value = module.FAMILY.ablations[ablation]
                agent[key] = value
            module.FAMILY.run(env, agent, CostLedger(), 0, None)

    assert {type(policy) for policy in seen} == {type(p) for p in OPTION_POLICIES}
    assert all(isinstance(policy, OptionPolicy) for policy in seen)


def test_policy_signatures_expose_no_ground_truth():
    for entry in ENTRY_POINTS:
        assert _forbidden(entry) == [], entry
    for policy in OPTION_POLICIES:
        params = list(inspect.signature(policy.select).parameters)
        assert params == ["belief", "ctx"]


def test_policy_context_carries_no_truth_fields():
    field_names = set(PolicyContext.__dataclass_fields__)
    assert field_names == {
        "rng",
        "observer_estimate",
        "landmark_estimates",
    }


def test_belief_has_no_ground_truth_fields():
    field_names = set(Belief.__slots__)
    assert "latent_truth" not in field_names
    assert all("truth" not in name for name in field_names)


def test_family_c_agent_acts_on_verdicts_not_ground_truth(monkeypatch):
    """With every verdict forced to pass, the observer-aware agent moves no
    cache, although the adversary saw caches placed: it learns of a sighting
    only from a fail verdict, whatever the ground truth says."""
    env, agent = FamilyCConfig(caches=12, visibility=0.7), dict(family_c.FAMILY.agent)
    assert family_c.FAMILY.run(env, agent, CostLedger(), 0, None).metrics["recache_moves"] > 0
    original = verifier.evaluate
    monkeypatch.setattr(verifier, "evaluate", lambda *args: {**original(*args), "verdict": True})
    metrics = family_c.FAMILY.run(env, agent, CostLedger(), 0, None).metrics
    assert metrics["recache_moves"] == 0
    assert metrics["violations"] > 0


def test_retrieval_carries_no_truth():
    assert set(Retrieval.__dataclass_fields__) == {
        "episode",
        "decoded_location",
        "probes_used",
    }
