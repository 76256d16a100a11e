"""Policy interfaces and the generic control-loop operators.

Firewall rule: a policy receives `Belief`, `Retrieval`, `OptionChoice`, and a
`PolicyContext`, and nothing else. Ground-truth latents and environment state
never cross this boundary; an audit test inspects these signatures to keep it
that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..controller import ControllerConfig, pd_feedback
from ..memory import EMPTY_QUERY, LandmarkSet, Query, Retrieval, encode_cue
from ..rng import Substream
from ..trusted import trusted
from .belief import Belief
from .state import (
    Action,
    ConfigurationError,
    OptionChoice,
    OptionKind,
    validate_option,
)


@dataclass
class PolicyContext:
    """Everything a policy may consult besides its belief.

    `observer_estimate` is the agent-side copy of the adversary belief (None
    for observer-unaware agents); `landmark_estimates` are the agent's current
    landmark fixes used for cue formation.
    """

    rng: Substream
    controller: ControllerConfig | None = None
    observer_estimate: object | None = None
    landmark_estimates: LandmarkSet | None = None
    option_schema: dict | None = None


@runtime_checkable
class OptionPolicy(Protocol):
    """High-level policy choosing temporally extended options."""

    def select(self, belief: Belief, ctx: PolicyContext) -> OptionChoice: ...


@runtime_checkable
class PrimitivePolicy(Protocol):
    """Low-level policy emitting one primitive action per step."""

    def act(
        self,
        belief: Belief,
        retrieved: Retrieval | None,
        option: OptionChoice,
        ctx: PolicyContext,
    ) -> "ActOutcome": ...


@trusted
@dataclass(frozen=True)
class ActOutcome:
    """Primitive action plus its reported compute burden."""

    action: Action
    compute: float = 0.0
    clamped: bool = False


def check_policy(policy, protocol: type):
    """Return `policy` once it is shown to implement `protocol`
    (`OptionPolicy` or `PrimitivePolicy`).

    Runners call this where they build each policy, so `select_option` and
    `act` need not repeat the structural check on every step.
    """
    if not isinstance(policy, protocol):
        raise ConfigurationError(
            f"{type(policy).__name__} does not implement {protocol.__name__}"
        )
    return policy


def select_option(
    policy: OptionPolicy, belief: Belief | None, ctx: PolicyContext
) -> OptionChoice:
    """Run the high-level policy and validate its choice against the schema.
    The policy was checked against `OptionPolicy` when it was built."""
    option = policy.select(belief, ctx)
    return validate_option(option, ctx.option_schema)


def form_query(belief: Belief | None, option: OptionChoice, ctx: PolicyContext) -> Query:
    """Derive the retrieval query induced by the current belief and option.

    Only cache and retrieve options touch memory; every other option kind
    maps to the distinguished empty query.
    """
    if option.kind not in (OptionKind.RETRIEVE, OptionKind.CACHE):
        return EMPTY_QUERY
    landmarks = ctx.landmark_estimates
    if landmarks is None:
        raise ConfigurationError("query formation requires landmark estimates")
    location = (option.params["x"], option.params["y"])
    return Query(item_type=int(option.params["item_type"]), cue=encode_cue(location, landmarks))


def act(
    policy: PrimitivePolicy,
    belief: Belief,
    retrieved: Retrieval | None,
    option: OptionChoice,
    ctx: PolicyContext,
) -> ActOutcome:
    """Run the low-level policy for the active option. The policy was checked
    against `PrimitivePolicy` when it was built."""
    return policy.act(belief, retrieved, option, ctx)


# ---------------------------------------------------------------------------
# Generic primitive policies
# ---------------------------------------------------------------------------


class StabilizingController:
    """PD regulation toward zero error while a stabilize option is active.

    Uses the compensated state estimate when the compensator is enabled,
    otherwise the raw delayed estimate. With feedback disabled it pops the
    pre-committed open-loop schedule (if any) and then stays silent. Every
    force it emits is clamped to the checked `action_bound`, so its actions
    and outcomes are built unchecked.
    """

    def __init__(self, schedule: list[float] | None = None):
        self.schedule = list(schedule or [])

    def act(
        self,
        belief: Belief,
        retrieved: Retrieval | None,
        option: OptionChoice,
        ctx: PolicyContext,
    ) -> ActOutcome:
        cfg = ctx.controller
        if cfg.feedback_enabled:
            if cfg.compensator_enabled:
                est = belief.reconstructed_embodied
            else:
                est = belief.delayed_embodied
            err, err_rate = est.scalar()
            force, clamped = pd_feedback(cfg, err, err_rate)
            return ActOutcome._trusted(Action._trusted("force", {"force": force}), 0.0, clamped)
        if self.schedule:
            force = self.schedule.pop(0)
            bounded = max(-cfg.action_bound, min(cfg.action_bound, force))
            return ActOutcome._trusted(
                Action._trusted("force", {"force": bounded}), 0.0, bounded != force
            )
        return ActOutcome._trusted(Action._trusted("force", {"force": 0.0}), 0.0, False)
