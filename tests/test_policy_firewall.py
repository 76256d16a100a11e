"""Interface audit: policies can see beliefs and retrievals, never truth.

These tests inspect the policy API surface rather than behavior: no policy
entry point may accept or reach ground-truth latents, environment state, or
a verifier signal's ground-truth verdict.
"""

import inspect
import typing

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
from hoardbench.verifier import AgentSignal, VerifierSignal

# Compared by identity, so a type that is deleted breaks this import rather
# than leaving a name that can never match.
FORBIDDEN_TYPES = (VerifierSignal, MemoryStore, CostLedger, RunStreams)

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


def test_agent_signal_view_strips_ground_truth():
    assert "ground_truth_verdict" in VerifierSignal.__dataclass_fields__
    assert "ground_truth_verdict" not in AgentSignal.__dataclass_fields__
    sig = VerifierSignal(5, 0, 4, True, False, "p")
    view = sig.agent_view()
    assert view is not None and not hasattr(view, "ground_truth_verdict")


def test_retrieval_carries_no_truth():
    assert set(Retrieval.__dataclass_fields__) == {
        "episode",
        "decoded_location",
        "probes_used",
    }
