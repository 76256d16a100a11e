"""Policy interfaces and the generic control-loop operators.

Firewall rule: a policy receives `Belief`, `Retrieval`, `OptionChoice`, and a
`PolicyContext`, and nothing else. Ground-truth latents and environment state
never cross this boundary; an audit test inspects these signatures to keep it
that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..memory import CueVector, LandmarkSet, Query, Retrieval, encode_cue, encode_cues
from ..rng import Substream
from .belief import Belief
from .state import OptionChoice


@dataclass
class PolicyContext:
    """Everything a policy may consult besides its belief.

    `observer_estimate` is the adversary belief an observer-aware agent reads
    (None for observer-unaware agents); `landmark_estimates` are the agent's
    current landmark fixes used for cue formation.
    """

    rng: Substream
    observer_estimate: object | None = None
    landmark_estimates: LandmarkSet | None = None


@runtime_checkable
class OptionPolicy(Protocol):
    """High-level policy choosing temporally extended options."""

    def select(self, belief: Belief, ctx: PolicyContext) -> OptionChoice: ...


@runtime_checkable
class PrimitivePolicy(Protocol):
    """Low-level policy emitting one force per step, and whether the bound
    clamped it."""

    def act(
        self,
        belief: Belief,
        retrieved: Retrieval | None,
        option: OptionChoice,
        ctx: PolicyContext,
    ) -> tuple[float, bool]: ...


def select_option(
    policy: OptionPolicy, belief: Belief | None, ctx: PolicyContext
) -> OptionChoice:
    """Run the high-level policy. This is the seam that perfbench's
    `policy.select_option` span times."""
    return policy.select(belief, ctx)


def form_query(
    belief: Belief | None, option: OptionChoice, ctx: PolicyContext, cue: CueVector | None = None
) -> Query:
    """Derive the retrieval query of a cache or retrieve option from its
    location, encoded against the context's landmark estimates. A caller
    that has encoded the option's location already, as `form_queries` does
    for a batch, passes the cue as `cue`.
    """
    if cue is None:
        cue = encode_cue((option.params["x"], option.params["y"]), ctx.landmark_estimates)
    return Query(item_type=int(option.params["item_type"]), cue=cue)


def form_queries(
    belief: Belief | None, options: list[OptionChoice], ctx: PolicyContext
) -> list[Query]:
    """`form_query` of each cache or retrieve option, with all their cues
    encoded in one pass."""
    cues = encode_cues([(o.params["x"], o.params["y"]) for o in options], ctx.landmark_estimates)
    return [form_query(belief, o, ctx, cue) for o, cue in zip(options, cues)]


def act(
    policy: PrimitivePolicy,
    belief: Belief,
    retrieved: Retrieval | None,
    option: OptionChoice,
    ctx: PolicyContext,
) -> tuple[float, bool]:
    """Run the low-level policy for the active option: the step's force and
    whether it was clamped. This is the seam that perfbench's `policy.act`
    span times. No runner calls it today: family A's stabilize loop takes
    its force from `controller.pd_feedback` or its open-loop schedule
    directly, so the span reads 0 calls."""
    return policy.act(belief, retrieved, option, ctx)
