"""hoardbench: a deterministic benchmark suite for agents that must control
hidden dynamics, cache and retrieve episodic memories at scale, act under
strategic observation, and pass delayed, noisy verification."""

__version__ = "0.1.0"

from .controller import ControllerConfig, RlsState, pd_feedback, predictive_compensate, rls_update
from .ledger import CostLedger, StepCosts, accrue, constraint_check, objective_value
from .memory import MemoryStore, Query, Retrieval, StoreVariant, decode_location, retrieve, write
from .observer import ObserverBelief, leakage_score, observer_update, pilfer_select
from .rng import RunStreams, Substream
from .verifier import SignalSink, evaluate

__all__ = [
    "ControllerConfig",
    "CostLedger",
    "MemoryStore",
    "ObserverBelief",
    "Query",
    "Retrieval",
    "RlsState",
    "RunStreams",
    "SignalSink",
    "StepCosts",
    "StoreVariant",
    "Substream",
    "__version__",
    "accrue",
    "constraint_check",
    "decode_location",
    "evaluate",
    "leakage_score",
    "objective_value",
    "observer_update",
    "pd_feedback",
    "pilfer_select",
    "predictive_compensate",
    "retrieve",
    "rls_update",
    "write",
]
