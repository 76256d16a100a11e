from .belief import Belief, BeliefConfig, initial_belief, update_belief
from .policy import (
    OptionPolicy,
    PolicyContext,
    PrimitivePolicy,
    act,
    form_queries,
    form_query,
    select_option,
)
from .state import (
    ConfigurationError,
    InputError,
    LatentEvidence,
    OptionChoice,
    OptionKind,
    Trace,
)

__all__ = [
    "Belief",
    "BeliefConfig",
    "ConfigurationError",
    "InputError",
    "LatentEvidence",
    "OptionChoice",
    "OptionKind",
    "OptionPolicy",
    "PolicyContext",
    "PrimitivePolicy",
    "Trace",
    "act",
    "form_queries",
    "form_query",
    "initial_belief",
    "select_option",
    "update_belief",
]
