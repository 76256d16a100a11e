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

A seed's world, its env draws and its writes' cues, is built once per seed
and config and shared by the seed's variants, which a grid runs back to
back; each variant fills its own store and forms its own queries.

Each write and each query is one `write` and one `retrieve` call, but each
chunk of events or queries goes to the trace in one append.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..core.belief import Belief
from ..core.policy import PolicyContext, form_queries, select_option
from ..core.state import ConfigurationError, OptionChoice, OptionKind, Trace
from ..errors import check_int_fields, check_noise_rates, check_number_fields
from ..ledger import CostLedger, accrue, median, percentile
from ..memory import (
    MAX_LANDMARKS,
    LandmarkSet,
    MemoryStore,
    StoreVariant,
    encode_cues,
    retrieve,
    write,
)
from ..rng import RunStreams, Substream
from ..verifier import SignalSink
from .records import Family, RunRecord, STATUS_COMPLETED, finish_record

# Distractors land within this radius of a true cache: near enough to share
# landmark context and confuse cue matching, far enough that digging at a
# distractor's location usually misses the true item.
CONFLICT_RADIUS = 0.15
# Write cues are encoded, queries formed and trace records appended this
# many at a time, with one cue encoding pass and one trace append per chunk.
# Nothing in one chunk depends on another's result, so the chunk size
# changes no output; larger chunks cost more peak memory for less per-call
# set-up.
CHUNK = 64
# `conflict_rate` is the number of distractors per true cache, drawn with
# replacement. Up to one per cache the true caches stay at least half the
# store, so a retrieval still asks which of a few nearby cues is the cache;
# above it the store is mostly distractors, and at 1e30 the distractor draw
# asks numpy for more values than an array can hold.
MAX_CONFLICT_RATE = 1.0
# `landmark_drift` is the σ of each landmark's Gaussian displacement, in
# arena units. At σ 1 a landmark moves about a whole side of the unit arena,
# so no cue still points near its cache; far above it (1e300) the decode's
# squared distances overflow.
MAX_LANDMARK_DRIFT = 1.0
# `n_events` is the number of caches, each written and queried once. A cell
# keeps every event's episode, cue and trace rows, about 1.2 KB, and spends
# about 60 µs on it (16,384 events: 0.9 s and 19 MB), so at 2**20 it runs
# for about a minute in over a GB; at 1e20 numpy refuses the event draws.
MAX_EVENTS = 2**20
# A retrieval goal carries its item type as a float option parameter, which
# holds every integer up to 2**53 exactly; beyond it a query could ask for a
# type that no cache has, and at 1e20 the type draw leaves int64.
MAX_ITEM_TYPES = 2**53


def _chunks(items):
    """Consecutive lists of up to `CHUNK` items."""
    it = iter(items)
    while chunk := list(islice(it, CHUNK)):
        yield chunk


class RetrievalGoalPolicy:
    """Queue of pending retrieval goals; the only admissible option is to go
    retrieve the next one."""

    def __init__(self, goals: list[tuple[int, float, float]]):
        self.goals = deque(goals)

    def select(self, belief: Belief | None, ctx: PolicyContext) -> OptionChoice:
        item_type, x, y = self.goals.popleft()
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
            ("n_events", 1, MAX_EVENTS),
            ("item_types", 1, MAX_ITEM_TYPES),
            ("landmark_count", 3, MAX_LANDMARKS),
            ("query_delay", 0, math.inf),
        ))
        check_number_fields(self, (
            ("landmark_drift", 0.0, MAX_LANDMARK_DRIFT),
            ("conflict_rate", 0.0, MAX_CONFLICT_RATE),
            ("dig_radius", 0.0, math.inf),
            ("precision_target", 0.0, 1.0),
        ))
        check_noise_rates("verifier_fp", self.verifier_fp, "verifier_fn", self.verifier_fn)
        if self.dig_radius == 0:
            raise ConfigurationError("dig_radius must be positive")


@functools.lru_cache(maxsize=1)
def _world(env: FamilyBConfig, seed: int) -> tuple:
    """`seed`'s world under `env`: the landmarks at write and at query time,
    the query order as event indices, and every write, the true caches then
    the distractors, as an (item_type, value, x, y) event and its cue. Only
    this reads the seed's env stream, so a seed's variants share it; keyed
    on the whole config, it cannot go stale. It hands out tuples and
    landmark sets of read-only positions, whose decode memos only cache."""
    stream = Substream(seed, "env")
    landmarks = LandmarkSet.sample(env.landmark_count, stream)
    n = env.n_events
    types = stream.integers(1, env.item_types + 1, size=n)
    values = stream.uniform(0.5, 1.5, size=n)
    locs = stream.uniform(0.0, 1.0, size=(n, 2))

    # Drift and query order are drawn before the conflict payload so that
    # sweeps over conflict_rate compare paired worlds: same landmarks, same
    # caches, same drift, only the distractor set differs.
    drifted = landmarks.drifted(env.landmark_drift, stream)
    order = stream.permutation(n)

    # The distractor draws come last, so drawing none changes no other draw.
    n_conflict = int(round(env.conflict_rate * n))
    base_idx = stream.integers(0, n, size=n_conflict)
    radii = CONFLICT_RADIUS * np.sqrt(stream.uniform(0.0, 1.0, size=n_conflict))
    angles = stream.uniform(0.0, 2.0 * np.pi, size=n_conflict)
    conflict_values = stream.uniform(0.5, 1.5, size=n_conflict)

    events = [(int(types[i]), float(values[i]), float(locs[i, 0]), float(locs[i, 1]))
              for i in range(n)]
    for b, radius, angle, value in zip(base_idx.tolist(), radii, angles, conflict_values):
        item_type, _, x, y = events[b]
        x = min(1.0, max(0.0, x + float(radius * np.cos(angle))))
        y = min(1.0, max(0.0, y + float(radius * np.sin(angle))))
        events.append((item_type, float(value), x, y))
    cues = [cue for chunk in _chunks(events)
            for cue in encode_cues([(x, y) for _, _, x, y in chunk], landmarks)]
    landmarks.positions.flags.writeable = drifted.positions.flags.writeable = False
    return landmarks, drifted, tuple(order.tolist()), tuple(events), tuple(cues)


def run_family_b(
    env: FamilyBConfig,
    variant: StoreVariant | str,
    ledger: CostLedger,
    seed: int,
    trace: Trace | None = None,
) -> RunRecord:
    streams = RunStreams(seed)
    landmarks, drifted, order, events, cues = _world(env, seed)
    store = MemoryStore(variant)
    n = env.n_events

    # The trace shape keys of a write and of a query. Each observes its phase
    # and that phase's landmark snapshot, the original landmarks for every
    # write and the drifted ones for every query; a write digs at the cached
    # item and caches it, a query digs where the store's episode decodes to
    # and retrieves the queried item.
    write_record = (
        ("phase",), (), landmarks.to_json(), "dig", ("item_type", "item_value", "step", "x", "y"),
        OptionKind.CACHE, ("item_type", "item_value", "x", "y"), False,
    )
    query_record = (
        ("phase",), (), drifted.to_json(), "dig", ("x", "y"), OptionKind.RETRIEVE,
        ("item_type", "x", "y"), False,
    )

    tracing = trace is not None

    # Trace steps are contiguous; the semantic timestamp (including the
    # structural query delay) lives in the store records. Each phase's
    # records go to the trace a chunk at a time, row after row, in key order:
    # a write's phase, its dig's params, its cache's; a query's phase, its
    # dig's params, its retrieval's.
    for chunk in _chunks(enumerate(zip(events, cues))):
        rows: list[float] = []
        for k, ((item_type, value, x, y), cue) in chunk:
            write(store, landmarks, item_type, (x, y), cue)
            if tracing:
                rows += (0.0, item_type, value, k, x, y, item_type, value, x, y)
        if tracing:
            trace.append(len(trace), write_record, *rows)

    policy = RetrievalGoalPolicy([(t, x, y) for t, _, x, y in (events[k] for k in order)])
    ctx = PolicyContext(rng=streams.agent, landmark_estimates=drifted)

    sink = SignalSink(streams.verifier, env.verifier_fp, env.verifier_fn)

    hits = 0
    confusions = 0
    probes: list[int] = []

    def queried():
        """Each chunk of retrievals, in query order, as its (event index,
        query) pairs; a chunk's queries are formed together."""
        for batch in _chunks(order):
            options = [select_option(policy, None, ctx) for _ in batch]
            yield zip(batch, form_queries(None, options, ctx))

    for chunk in queried():
        rows = []
        for idx, query in chunk:
            item_type, _, true_x, true_y = events[idx]
            result = retrieve(store, query, drifted)
            probes.append(result.probes_used)
            if tracing:
                dig = result.decoded_location or (0.0, 0.0)
                rows += (1.0, *dig, item_type, true_x, true_y)

            if result.episode is not None and result.decoded_location is not None:
                dx = result.decoded_location[0] - true_x
                dy = result.decoded_location[1] - true_y
                if (dx * dx + dy * dy) ** 0.5 <= env.dig_radius:
                    hits += 1
                if result.episode.id != idx:
                    confusions += 1
            else:
                confusions += 1
        if tracing:
            trace.append(len(trace), query_record, *rows)

    precision = hits / n
    confusion_rate = confusions / n
    precision_ok = precision >= env.precision_target
    # The check follows the writes, the delay between storage and recall,
    # which is structural (nothing decays, but the world moves underneath
    # the cues), and the queries.
    sink.check("precision_target", 0, len(events) + env.query_delay + n, precision_ok)

    # Every write and query costs one latency unit; a write's compute is 1
    # and a query's its probe count. B never stops on an exhausted budget,
    # so one charge of the run's totals leaves the ledger as per-event
    # charges would: the costs are non-negative integers, so some event
    # crosses the budget if and only if the total does.
    probe_total = float(sum(probes))
    accrue(
        ledger,
        task=0.0 if precision_ok else 1.0,
        latency=float(len(events) + n),
        compute=float(len(events)) + probe_total,
    )

    probe_arr = np.asarray(probes, dtype=float)
    record = RunRecord(family="B", variant="", seed=seed, status=STATUS_COMPLETED)
    record.goal_verdict = sink.goal_verdict("precision_target")
    record.metrics = {
        "precision": precision,
        "confusion_rate": confusion_rate,
        "probes_mean": float(probe_arr.mean()),
        "probes_median": median(probe_arr),
        "probes_p95": percentile(probe_arr, 95),
        "episodes_stored": float(len(store)),
    }
    record.kappa_by_source = {"writes": float(len(events)), "retrieval_probes": probe_total}
    record.signals = sink.signals
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
