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
    check_policy,
)
from hoardbench.core.state import ConfigurationError
from hoardbench.envs.family_a import LaunchPlanner, FamilyAConfig
from hoardbench.envs.family_b import RetrievalGoalPolicy
from hoardbench.envs.family_c import CacheSitePolicy
from hoardbench.memory import Retrieval
from hoardbench.verifier import AgentSignal, VerifierSignal

FORBIDDEN_TYPE_NAMES = {
    "LatentParams",
    "LatentSpec",
    "AgentState",
    "EmbodiedState",
    "VerifierSignal",
    "MemoryStore",
}

OPTION_POLICIES = [
    LaunchPlanner(FamilyAConfig()),
    RetrievalGoalPolicy([(1, 0.5, 0.5)]),
    CacheSitePolicy(0.02, 2, set()),
]
PRIMITIVE_POLICIES = [StabilizingController()]


def _annotation_names(func) -> set[str]:
    hints = typing.get_type_hints(func)
    names = set()
    for hint in hints.values():
        names.update(t.strip() for t in str(hint).replace("|", ",").split(","))
    return {n.rsplit(".", 1)[-1].rstrip("]") for n in names}


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
    for policy in OPTION_POLICIES:
        names = _annotation_names(policy.select)
        assert not (names & FORBIDDEN_TYPE_NAMES), names
        params = list(inspect.signature(policy.select).parameters)
        assert params == ["belief", "ctx"]
    for policy in PRIMITIVE_POLICIES:
        names = _annotation_names(policy.act)
        assert not (names & FORBIDDEN_TYPE_NAMES), names
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
    field_names = set(Belief.__dataclass_fields__)
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
