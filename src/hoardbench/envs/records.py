"""Per-run result record shared by all benchmark families, and the registry
entry through which the harness sees each family."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from ..ledger import CostLedger, objective_value

STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"
STATUS_BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass
class RunRecord:
    """Everything a single (variant, seed) cell reports back."""

    family: str
    variant: str
    seed: int
    status: str
    metrics: dict[str, float] = field(default_factory=dict)
    costs: dict[str, float] = field(default_factory=dict)
    objective: float = 0.0
    goal_verdict: int = 0
    kappa_by_source: dict[str, float] = field(default_factory=dict)
    signals: list[dict] = field(default_factory=list)
    observer_grid: list[float] | None = None
    error: str = ""

    def to_json_line(self) -> str:
        obj = {
            "family": self.family,
            "variant": self.variant,
            "seed": self.seed,
            "status": self.status,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "costs": {k: self.costs[k] for k in sorted(self.costs)},
            "objective": self.objective,
            "goal_verdict": self.goal_verdict,
            "kappa_by_source": {
                k: self.kappa_by_source[k] for k in sorted(self.kappa_by_source)
            },
            "signals": self.signals,
            "observer_grid": self.observer_grid,
            "error": self.error,
        }
        return json.dumps(obj, separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RunRecord":
        return cls(
            family=obj["family"],
            variant=obj["variant"],
            seed=int(obj["seed"]),
            status=obj["status"],
            metrics=dict(obj["metrics"]),
            costs=dict(obj["costs"]),
            objective=float(obj["objective"]),
            goal_verdict=int(obj["goal_verdict"]),
            kappa_by_source=dict(obj["kappa_by_source"]),
            signals=list(obj["signals"]),
            observer_grid=obj.get("observer_grid"),
            error=obj.get("error", ""),
        )

    def value(self, metric: str) -> float:
        """Look up a metric by name across the metric, cost, and objective
        namespaces; unknown names raise with the known names listed."""
        if metric == "objective":
            return self.objective
        if metric == "goal_verdict":
            return float(self.goal_verdict)
        if metric in self.metrics:
            return self.metrics[metric]
        if metric in self.costs:
            return self.costs[metric]
        known = sorted({"objective", "goal_verdict", *self.metrics, *self.costs})
        raise KeyError(f"unknown metric {metric!r}; known: {known}")


def finish_record(record: RunRecord, ledger: CostLedger) -> RunRecord:
    record.costs = {
        "task_cost": ledger.task_cost,
        "latency_cost": ledger.latency_cost,
        "leak_cost": ledger.leak_cost,
        "repair_cost": ledger.repair_cost,
        "compute_used": ledger.compute_used,
    }
    record.objective = objective_value(ledger)
    if ledger.exhausted:
        record.status = STATUS_BUDGET_EXHAUSTED
    return record


@dataclass(frozen=True)
class Family:
    """What the harness knows of one family.

    `agent` maps each agent key the family reads to its default, and
    `choices` lists the allowed values of the string keys. Each ablation maps
    its name to the (agent key, value) it sets. `run(env, agent, ledger,
    seed, trace)` runs one cell, and `check_agent` raises
    `ConfigurationError` for an agent block the family cannot run.
    `unread(env, agent)` lists, as (key, reason) pairs, the env keys that
    fall short in that cell: set off their defaults to no effect (read by
    nothing the agent runs, or clamped), or cut short by another key.
    """

    env_config: type
    agent: dict[str, object]
    choices: dict[str, tuple[str, ...]]
    ablations: dict[str, tuple[str, object]]
    run: Callable[..., RunRecord]
    check_agent: Callable[[dict], object] = lambda agent: None
    unread: Callable[[object, dict], list[tuple[str, str]]] = lambda env, agent: []
