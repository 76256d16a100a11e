"""Family B: cache-like episodic retrieval at scale.

Phase one writes N one-shot cache events (plus same-type distractors placed
within a small radius of true caches, modelling cue conflict). Phase two
drifts every landmark, then issues one delayed query per true event in
random order. A query is formed the way a returning agent would form it:
re-encode the remembered location against the current, drifted landmark
fixes, and ask the store for the best-matching episode of that item type.

Every write and every query costs one latency unit, and a query's probe
count is its compute; precision is the fraction of queries whose decoded dig
point lands within the dig radius of the true location; confusion is
returning the wrong episode.

One noisy verifier checks the goal, precision at or above `precision_target`,
once at the end of the run. No agent reads its signal, so the family takes no
verifier placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..core.belief import Belief
from ..core.policy import (
    OptionPolicy,
    PolicyContext,
    check_policy,
    form_queries,
    select_option,
)
from ..core.state import (
    Action,
    ConfigurationError,
    Observation,
    OptionChoice,
    OptionKind,
    Trace,
)
from ..errors import check_int_fields, check_noise_rates, check_number_fields
from ..ledger import CostLedger, accrue
from ..memory import (
    LandmarkSet,
    MemoryStore,
    StoreVariant,
    retrieve,
    write_many,
)
from ..rng import RunStreams
from ..verifier import SignalSink
from .records import Family, RunRecord, STATUS_COMPLETED, finish_record

# Distractors land within this radius of a true cache: near enough to share
# landmark context and confuse cue matching, far enough that digging at a
# distractor's location usually misses the true item.
CONFLICT_RADIUS = 0.15
# Writes are stored, and queries formed, this many at a time, with one cue
# encoding pass per chunk. Nothing in one chunk depends on another's result,
# so the chunk size changes no output; larger chunks cost more peak memory
# for less per-call set-up.
CHUNK = 64

OPTION_SCHEMA = {
    OptionKind.RETRIEVE: ("item_type", "x", "y"),
    OptionKind.CACHE: ("x", "y", "item_type", "item_value"),
}


# The trace shape keys of a write and of a query. Each observes its phase
# and that phase's landmark snapshot; a write digs at the cached item and
# caches it, a query digs where the store's episode decodes to and
# retrieves the queried item.
_WRITE_RECORD = (
    ("phase",), True, "dig", ("item_type", "item_value", "step", "x", "y"),
    OptionKind.CACHE, ("item_type", "item_value", "x", "y"), False,
)
_QUERY_RECORD = (
    ("phase",), True, "dig", ("x", "y"), OptionKind.RETRIEVE, ("item_type", "x", "y"), False)


def _chunks(items):
    """Consecutive lists of up to `CHUNK` items."""
    it = iter(items)
    while chunk := list(islice(it, CHUNK)):
        yield chunk


class RetrievalGoalPolicy:
    """Queue of pending retrieval goals; the only admissible option is to go
    retrieve the next one."""

    def __init__(self, goals: list[tuple[int, float, float]]):
        self.goals = list(goals)

    def select(self, belief: Belief | None, ctx: PolicyContext) -> OptionChoice:
        item_type, x, y = self.goals.pop(0)
        return OptionChoice(
            OptionKind.RETRIEVE, {"item_type": float(item_type), "x": x, "y": y}
        )


@dataclass(frozen=True)
class FamilyBConfig:
    n_events: int = 256
    item_types: int = 8
    landmark_count: int = 25
    query_delay: int = 50
    landmark_drift: float = 0.0
    conflict_rate: float = 0.0
    dig_radius: float = 0.05
    precision_target: float = 0.9
    verifier_fp: float = 0.0
    verifier_fn: float = 0.0

    def __post_init__(self):
        check_int_fields(self, (
            ("n_events", 1, math.inf),
            ("item_types", 1, math.inf),
            ("landmark_count", 3, math.inf),
            ("query_delay", 0, math.inf),
        ))
        check_number_fields(self, (
            ("landmark_drift", 0.0, math.inf),
            ("conflict_rate", 0.0, math.inf),
            ("dig_radius", 0.0, math.inf),
            ("precision_target", 0.0, 1.0),
        ))
        check_noise_rates("verifier_fp", self.verifier_fp, "verifier_fn", self.verifier_fn)
        if self.dig_radius == 0:
            raise ConfigurationError("dig_radius must be positive")


def run_family_b(
    env: FamilyBConfig,
    variant: StoreVariant | str,
    ledger: CostLedger,
    seed: int,
    trace: Trace | None = None,
) -> RunRecord:
    streams = RunStreams(seed)
    landmarks = LandmarkSet.sample(env.landmark_count, streams.env)
    store = MemoryStore(variant)

    n = env.n_events
    types = streams.env.integers(1, env.item_types + 1, size=n)
    values = streams.env.uniform(0.5, 1.5, size=n)
    locs = streams.env.uniform(0.0, 1.0, size=(n, 2))

    # Drift and query order are drawn before the conflict payload so that
    # sweeps over conflict_rate compare paired worlds: same landmarks, same
    # caches, same drift, only the distractor set differs.
    drifted = landmarks.drifted(env.landmark_drift, streams.env)
    order = streams.env.permutation(n)

    n_conflict = int(round(env.conflict_rate * n))
    base_idx = streams.env.integers(0, n, size=n_conflict) if n_conflict else np.zeros(0, dtype=int)
    radii = CONFLICT_RADIUS * np.sqrt(streams.env.uniform(0.0, 1.0, size=n_conflict)) if n_conflict else np.zeros(0)
    angles = streams.env.uniform(0.0, 2.0 * np.pi, size=n_conflict) if n_conflict else np.zeros(0)
    conflict_values = streams.env.uniform(0.5, 1.5, size=n_conflict) if n_conflict else np.zeros(0)

    # One snapshot per phase: every write sees the original landmarks and
    # every query the drifted ones, so each snapshot is built once, parsed
    # once by the store and held and encoded once in the trace's table.
    write_obs = Observation({"phase": 0.0}, landmarks=landmarks.as_obs_tuples())
    query_landmarks = drifted.as_obs_tuples()
    step = 0
    write_kappa = 0.0

    def cache_events():
        """(item_type, value, x, y) of every write: the true caches, then
        the distractors."""
        for i in range(n):
            yield int(types[i]), float(values[i]), float(locs[i, 0]), float(locs[i, 1])
        for j in range(n_conflict):
            b = int(base_idx[j])
            dx = float(radii[j] * np.cos(angles[j]))
            dy = float(radii[j] * np.sin(angles[j]))
            yield (
                int(types[b]),
                float(conflict_values[j]),
                min(1.0, max(0.0, float(locs[b, 0]) + dx)),
                min(1.0, max(0.0, float(locs[b, 1]) + dy)),
            )

    def written():
        """Every write's step and event, in order, stored a chunk at a
        time; the writes are the steps from 0."""
        for events in _chunks(enumerate(cache_events())):
            actions = [
                Action(
                    "dig",
                    {
                        "x": x,
                        "y": y,
                        "item_type": float(item_type),
                        "item_value": value,
                        "step": float(k),
                    },
                )
                for k, (item_type, value, x, y) in events
            ]
            write_many(store, write_obs, actions)
            yield from events

    for k, (item_type, value, x, y) in written():
        accrue(ledger, latency=1.0, compute=1.0)
        write_kappa += 1.0
        if trace is not None:
            # Trace steps are contiguous; the semantic timestamp (including
            # the structural query delay) lives in the store records.
            # Floats in key order: the phase, the dig's params, the cache's.
            item = float(item_type)
            trace.append_floats(len(trace), _WRITE_RECORD, 0.0, item, value, float(k), x, y,
                                item, value, x, y, landmarks=write_obs.landmarks)
        step += 1

    # Delay between storage and recall is structural: nothing decays, but the
    # world moves underneath the cues.
    step += env.query_delay

    policy = check_policy(
        RetrievalGoalPolicy(
            [(int(types[int(k)]), float(locs[int(k), 0]), float(locs[int(k), 1])) for k in order]
        ),
        OptionPolicy,
    )
    ctx = PolicyContext(
        rng=streams.agent,
        landmark_estimates=drifted,
        option_schema=OPTION_SCHEMA,
    )

    sink = SignalSink(streams.verifier, env.verifier_fp, env.verifier_fn)

    hits = 0
    confusions = 0
    probes: list[int] = []
    probe_kappa = 0.0

    def queried():
        """The event index and the query of every retrieval, in query
        order, formed a chunk at a time."""
        for batch in _chunks(int(k) for k in order):
            options = [select_option(policy, None, ctx) for _ in batch]
            yield from zip(batch, form_queries(None, options, ctx))

    for idx, query in queried():
        true_loc = (float(locs[idx, 0]), float(locs[idx, 1]))
        result = retrieve(store, query, drifted)
        probes.append(result.probes_used)
        probe_kappa += result.probes_used
        accrue(ledger, latency=1.0, compute=float(result.probes_used))
        if trace is not None:
            dig = result.decoded_location or (0.0, 0.0)
            trace.append_floats(len(trace), _QUERY_RECORD, 1.0, float(dig[0]), float(dig[1]),
                                float(types[idx]), *true_loc, landmarks=query_landmarks)

        if result.episode is not None and result.decoded_location is not None:
            dx = result.decoded_location[0] - true_loc[0]
            dy = result.decoded_location[1] - true_loc[1]
            if (dx * dx + dy * dy) ** 0.5 <= env.dig_radius:
                hits += 1
            if result.episode.id != idx:
                confusions += 1
        else:
            confusions += 1
        step += 1

    precision = hits / n
    confusion_rate = confusions / n
    precision_ok = precision >= env.precision_target
    sink.check("precision_target", 0, step, precision_ok)

    accrue(ledger, task=0.0 if precision_ok else 1.0)

    probe_arr = np.asarray(probes, dtype=float)
    record = RunRecord(family="B", variant="", seed=seed, status=STATUS_COMPLETED)
    record.goal_verdict = sink.goal_verdict("precision_target")
    record.metrics = {
        "precision": precision,
        "confusion_rate": confusion_rate,
        "probes_mean": float(probe_arr.mean()),
        "probes_median": float(np.median(probe_arr)),
        "probes_p95": float(np.percentile(probe_arr, 95)),
        "episodes_stored": float(len(store)),
    }
    record.kappa_by_source = {"writes": write_kappa, "retrieval_probes": probe_kappa}
    record.signals = [s.to_json_obj() for s in sink.signals]
    return finish_record(record, ledger)


def _run(env, agent, ledger, seed, trace):
    return run_family_b(env, agent["memory_variant"], ledger, seed, trace)


FAMILY = Family(
    env_config=FamilyBConfig,
    agent={"memory_variant": "clustered"},
    choices={"memory_variant": ("flat", "clustered")},
    ablations={"flat_archive": ("memory_variant", "flat")},
    run=_run,
)
