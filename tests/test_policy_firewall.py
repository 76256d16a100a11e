"""Interface audit: policies can see beliefs and retrievals, never truth.

These tests inspect the policy API surface rather than behavior: no policy
entry point may accept or reach ground-truth latents, environment state, or
a verifier signal's ground-truth verdict.
"""

import inspect
import typing

import pytest

from hoardbench.core.belief import Belief
from hoardbench.core.policy import (
    OptionPolicy,
    PolicyContext,
    PrimitivePolicy,
    StabilizingController,
    act,
    check_policy,
    form_queries,
    form_query,
    select_option,
)
from hoardbench.core.state import ConfigurationError
from hoardbench.envs.family_a import LaunchPlanner, FamilyAConfig
from hoardbench.envs.family_b import RetrievalGoalPolicy
from hoardbench.envs.family_c import CacheSitePolicy
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
PRIMITIVE_POLICIES = [StabilizingController()]
ENTRY_POINTS = [
    *(policy.select for policy in OPTION_POLICIES),
    *(policy.act for policy in PRIMITIVE_POLICIES),
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


def test_primitive_policies_conform_to_protocol():
    for policy in PRIMITIVE_POLICIES:
        assert isinstance(policy, PrimitivePolicy)


def test_non_conforming_policy_is_rejected_when_built():
    for policy in OPTION_POLICIES:
        assert check_policy(policy, OptionPolicy) is policy
    for policy in PRIMITIVE_POLICIES:
        assert check_policy(policy, PrimitivePolicy) is policy
    with pytest.raises(ConfigurationError, match="OptionPolicy"):
        check_policy(StabilizingController(), OptionPolicy)
    with pytest.raises(ConfigurationError, match="PrimitivePolicy"):
        check_policy(RetrievalGoalPolicy([]), PrimitivePolicy)


def test_policy_signatures_expose_no_ground_truth():
    for entry in ENTRY_POINTS:
        assert _forbidden(entry) == [], entry
    for policy in OPTION_POLICIES:
        params = list(inspect.signature(policy.select).parameters)
        assert params == ["belief", "ctx"]
    for policy in PRIMITIVE_POLICIES:
        params = list(inspect.signature(policy.act).parameters)
        assert params == ["belief", "retrieved", "option", "ctx"]


def test_policy_context_carries_no_truth_fields():
    field_names = set(PolicyContext.__dataclass_fields__)
    assert field_names == {
        "rng",
        "controller",
        "observer_estimate",
        "landmark_estimates",
        "option_schema",
    }


def test_belief_has_no_ground_truth_fields():
    field_names = set(Belief._fields)
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
