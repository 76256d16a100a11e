"""Span tracing at hoardbench's layer boundaries, from outside the package.

The benchmark never edits the program: it replaces each layer's public
function with a wrapper at every place the function is looked up (the
defining module and every ``from ... import`` binding in other hoardbench
modules), records spans while the run executes, and puts the originals back.

A span's self time is its duration minus the durations of its child spans.
Spans nest strictly in one thread, so children never overlap and the sum of
all self times equals the time covered by the outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass

# (defining module, function, span name). Every span name is `<layer>.<op>`.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("hoardbench.harness", "run_grid", "harness.run_grid"),
    ("hoardbench.harness", "write_report", "harness.write_report"),
    ("hoardbench.harness", "run_one", "harness.cell"),
    ("hoardbench.envs.family_a", "run_family_a", "envs.family_a"),
    ("hoardbench.envs.family_b", "run_family_b", "envs.family_b"),
    ("hoardbench.envs.family_c", "run_family_c", "envs.family_c"),
    ("hoardbench.envs.family_d", "run_family_d", "envs.family_d"),
    ("hoardbench.envs.family_d", "_hill_climb", "family_d.hill_climb"),
    ("hoardbench.memory", "write", "memory.write"),
    ("hoardbench.memory", "retrieve", "memory.retrieve"),
    ("hoardbench.memory", "encode_cue", "memory.encode_cue"),
    ("hoardbench.memory", "_decode", "memory.decode"),
    ("hoardbench.core.belief", "update_belief", "belief.update"),
    ("hoardbench.core.policy", "select_option", "policy.select_option"),
    ("hoardbench.core.policy", "act", "policy.act"),
    ("hoardbench.core.policy", "form_query", "policy.form_query"),
    ("hoardbench.controller", "predictive_compensate", "controller.compensate"),
    ("hoardbench.controller", "pd_feedback", "controller.pd_feedback"),
    ("hoardbench.controller", "rls_update", "controller.rls_update"),
    ("hoardbench.observer", "observer_update", "observer.update"),
    ("hoardbench.observer", "leakage_score", "observer.leakage"),
    ("hoardbench.observer", "pilfer_select", "observer.pilfer"),
    ("hoardbench.verifier", "evaluate", "verifier.evaluate"),
    ("hoardbench.ledger", "accrue", "ledger.accrue"),
    ("hoardbench.ledger", "aggregate", "ledger.aggregate"),
    ("hoardbench.ledger", "constraint_check", "ledger.constraint_check"),
)

# Counted, not timed: one call per constraint scan, far too many for spans.
VIOLATIONS_TARGET = ("hoardbench.envs.family_d", "_violations")

# A run_one call that carries a trace is a failure-trace replay.
TRACE_REPLAY = "harness.trace_replay"
ORACLE = "bench.oracle"
ORACLE_STRIDE = 16

# Which end-to-end metric each layer's numbers should move, on which workload.
LAYER_MOVES: dict[str, str] = {
    "harness": "run_s on b_archive and a_control; cells_per_s on all workloads",
    "envs": "cells_per_s on the family's own workload",
    "family_d": "cells_per_s on d_verify, nothing elsewhere",
    "memory": "cells_per_s and run_s on b_archive; flat on c_watched",
    "belief": "cells_per_s on a_control",
    "policy": "cells_per_s on a_control; select_option and form_query also on b_archive",
    "controller": "cells_per_s on a_control",
    "observer": "cells_per_s on c_watched",
    "verifier": "cells_per_s on c_watched and d_verify",
    "ledger": "accrue: cells_per_s on a_control; aggregate, constraint_check: run_s on c_watched and a_control",
    "bench": "none: the benchmark's own oracle check",
}

# kappa source -> span whose grid-phase self time does that work.
KAPPA_LAYER: dict[str, str] = {
    "retrieval_probes": "memory.retrieve",
    "recovery_probes": "memory.retrieve",
    "writes": "memory.write",
    "cache_writes": "memory.write",
    "proposer_evals": "family_d.hill_climb",
    "compensation": "controller.compensate",
    "launch_scan": "policy.select_option",
}
KAPPA_SOURCES: tuple[str, ...] = (
    "cache_writes", "checker_evals", "compensation", "corrections", "decoys",
    "executor_evals", "launch_scan", "proposer_evals", "recovery_probes",
    "retrieval_probes", "writes",
)

_WRAPPED = "__perfbench_original__"


class Tracer:
    """Stack-based span recorder that aggregates as spans close.

    `stats[(phase, name)]` holds [calls, total seconds, self seconds]. The
    phase is "grid" inside `run_grid`, "report" inside `write_report`, and
    "other" elsewhere.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child seconds]
        self.stats: dict[tuple[str, str], list[float]] = {}
        self.counts: dict[str, float] = {}
        self.cell_seconds: list[float] = []
        self.phase = "other"
        self.paused = False

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        entry = self.stats.get((self.phase, name))
        if entry is None:
            entry = self.stats[(self.phase, name)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _sum(self, field: int, name: str, phase: str | None) -> float:
        return sum(v[field] for (p, n), v in self.stats.items()
                   if n == name and phase in (None, p))

    def calls(self, name: str, phase: str | None = None) -> int:
        return int(self._sum(0, name, phase))

    def total_s(self, name: str, phase: str | None = None) -> float:
        return self._sum(1, name, phase)

    def self_s(self, name: str, phase: str | None = None) -> float:
        return self._sum(2, name, phase)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v[2] for (_, n), v in self.stats.items() if n.startswith(prefix))

    def all_self_s(self) -> float:
        return sum(v[2] for v in self.stats.values())


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _span(tracer: Tracer, name: str, fn):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def _phase_span(tracer: Tracer, name: str, phase: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = tracer.phase
        tracer.phase = phase
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
            tracer.phase = before

    return wrapper


def _run_one_span(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        trace = kwargs.get("trace", args[4] if len(args) > 4 else None)
        tracer.enter("harness.cell" if trace is None else TRACE_REPLAY)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = tracer.exit()
            if trace is None and tracer.phase == "grid":
                tracer.cell_seconds.append(duration)

    return wrapper


def _violations_counter(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(plan, constraints, *args, **kwargs):
        if not tracer.paused:
            tracer.count("family_d.constraint_evals", len(constraints))
        return fn(plan, constraints, *args, **kwargs)

    return wrapper


def _retrieve_span(tracer: Tracer, fn, memory_module):
    """Span plus probe count; every ORACLE_STRIDE-th retrieve on a flat store
    is repeated through `brute_force_retrieve` and must pick the same episode
    and decode the same location."""
    brute_force = memory_module.brute_force_retrieve
    flat = memory_module.StoreVariant.FLAT
    flat_seen = [0]

    @functools.wraps(fn)
    def wrapper(store, query, current_landmarks):
        if tracer.paused:
            return fn(store, query, current_landmarks)
        tracer.enter("memory.retrieve")
        try:
            result = fn(store, query, current_landmarks)
            tracer.count("memory.probes", result.probes_used)
            if store.variant is flat:
                flat_seen[0] += 1
                if flat_seen[0] % ORACLE_STRIDE == 1:
                    _oracle_check(tracer, brute_force, store, query, current_landmarks, result)
            return result
        finally:
            tracer.exit()

    return wrapper


def _oracle_check(tracer, brute_force, store, query, landmarks, result) -> None:
    tracer.enter(ORACLE)
    tracer.paused = True
    try:
        expected = brute_force(store, query, landmarks)
    finally:
        tracer.paused = False
        tracer.exit()
    tracer.count("memory.oracle_checks")
    same_episode = (result.episode is None) == (expected.episode is None) and (
        result.episode is None or result.episode.id == expected.episode.id
    )
    if not same_episode or result.decoded_location != expected.decoded_location:
        tracer.count("memory.oracle_mismatches")


@dataclass
class Installation:
    """Replaced bindings, for restoration: (module, attribute, original)."""

    replaced: list[tuple[object, str, object]]
    missing: list[str]


def _hoardbench_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hoardbench" or name.startswith("hoardbench."))]


def _replace_everywhere(modules, original, wrapper, replaced) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                replaced.append((module, attr, original))


def install(tracer: Tracer) -> Installation:
    """Wrap every target at each of its lookup sites. Targets the program no
    longer defines are listed in `missing` and simply not traced."""
    importlib.import_module("hoardbench.cli")
    modules = _hoardbench_modules()
    replaced: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for module_name, func, span in SPAN_TARGETS + ((*VIOLATIONS_TARGET, None),):
        module = sys.modules.get(module_name)
        original = getattr(module, func, None) if module is not None else None
        if original is None:
            missing.append(f"{module_name}.{func}")
            continue
        if span is None:
            wrapper = _violations_counter(tracer, original)
        elif span == "harness.run_grid":
            wrapper = _phase_span(tracer, span, "grid", original)
        elif span == "harness.write_report":
            wrapper = _phase_span(tracer, span, "report", original)
        elif span == "harness.cell":
            wrapper = _run_one_span(tracer, original)
        elif span == "memory.retrieve":
            wrapper = _retrieve_span(tracer, original, module)
        else:
            wrapper = _span(tracer, span, original)
        setattr(wrapper, _WRAPPED, original)
        _replace_everywhere(modules, original, wrapper, replaced)
    return Installation(replaced, missing)


def uninstall(installation: Installation) -> None:
    for module, attr, original in reversed(installation.replaced):
        setattr(module, attr, original)
    installation.replaced.clear()


def leftover_wrappers() -> list[str]:
    """Bindings in hoardbench modules that are still benchmark wrappers."""
    return [
        f"{module.__name__}.{attr}"
        for module in _hoardbench_modules()
        for attr, value in vars(module).items()
        if hasattr(value, _WRAPPED)
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Spans reported as `<name>_calls` and `<name>_s` (self seconds).
CALL_SPANS: tuple[str, ...] = tuple(
    span for _, _, span in SPAN_TARGETS if not span.startswith(("harness.", "envs."))
)


def tail(values: list[float]) -> tuple[float, int]:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it, as
    (value, percentile); the maximum, as percentile 100, if none qualifies."""
    n = len(values)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return statistics.quantiles(values, n=100, method="inclusive")[pct - 1], pct
    return (max(values), 100) if values else (0.0, 100)


def layer_metrics(tracer: Tracer, kappa: dict[str, float], wall_s: float) -> dict[str, float]:
    """Per-layer numbers from one traced run; `kappa` is summed from its
    runs.jsonl and `wall_s` is its `cli.main` wall time."""
    t = tracer
    cells = t.cell_seconds
    cell_tail, _ = tail(cells)
    out: dict[str, float] = {
        "harness.grid_s": t.total_s("harness.run_grid"),
        "harness.report_s": t.total_s("harness.write_report"),
        "harness.trace_replay_s": t.total_s(TRACE_REPLAY),
        "harness.trace_replay_cells": t.calls(TRACE_REPLAY),
        "harness.cells": len(cells),
        "harness.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "harness.cell_s_tail": cell_tail,
        "harness.self_s": t.layer_self_s("harness"),
    }
    for family in "abcd":
        out[f"envs.family_{family}.self_s"] = t.self_s(f"envs.family_{family}")
    for name in CALL_SPANS:
        out[f"{name}_calls"] = t.calls(name)
        out[f"{name}_s"] = t.self_s(name)
    out["family_d.constraint_evals"] = t.counts.get("family_d.constraint_evals", 0)
    retrieves = t.calls("memory.retrieve")
    probes = t.counts.get("memory.probes", 0)
    out["memory.probes"] = probes
    out["memory.probes_per_retrieve"] = probes / retrieves if retrieves else 0.0
    out["memory.oracle_checks"] = t.counts.get("memory.oracle_checks", 0)
    out["memory.oracle_mismatches"] = t.counts.get("memory.oracle_mismatches", 0)
    out["bench.oracle_s"] = t.self_s(ORACLE)
    for source in KAPPA_SOURCES:
        out[f"kappa.{source}"] = kappa.get(source, 0.0)
    for source, span in KAPPA_LAYER.items():
        units = kappa.get(source, 0.0)
        out[f"ms_per_kappa.{source}"] = 1e3 * t.self_s(span, "grid") / units if units else 0.0
    out["trace.coverage_frac"] = t.all_self_s() / wall_s if wall_s > 0 else 0.0
    return out
