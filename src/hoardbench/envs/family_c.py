"""Family C: caching under strategic observation.

Three phases. In the caching phase the agent buries K items on the 20x20
arena grid; every physical action is independently visible to a watching
adversary with probability nu, and each sighting updates the adversary's
location belief. An observer-aware agent reads that one belief: it logs
the visibility bit of every action and knows the adversary's prior and
update rule, so the adversary's belief is exactly what it could compute. It
opens with decoy digs that dilute later evidence, places caches where
inferred mass is low, defers when even the best spot looks watched, and
relocates caches the runtime monitor reports as seen. In the pilfer phase
the adversary digs up its top-mass cells. In the recovery phase the agent
retrieves survivors through its episodic memory and re-caches what it finds
stolen.

Work that belongs to a whole phase is done once per phase. Nothing reads
the memory store before recovery, and C's landmarks never move, so each
cache or recache is written after the caching phase, in step order, with its
cue from one `encode_cues` pass; recovery encodes its query cues in one pass
too. The caching loop keeps its cost sums in locals, charged by `accrue`'s
rule at every step, and writes them to the ledger before the pilfer phase.
Its `CacheLayout` is the one record of which cells hide a cache, and
`recache_moves` and `kappa_by_source` are read off its records at the end.

A hidden constraint (a forbidden zone the agent does not know about) is
checkable only by postcondition. The "cache while observed" runtime monitor
is the signal whose placement the ablation grid flips: end-only signals
arrive only after the adversary has already acted.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ..core.belief import Belief
from ..core.policy import PolicyContext, select_option
from ..core.state import ConfigurationError, OptionChoice, OptionKind, Trace
from ..errors import check_int_fields, check_noise_rates, check_number_fields
from ..ledger import CostLedger, accrue
from ..memory import (
    MAX_LANDMARKS,
    LandmarkSet,
    MemoryStore,
    Query,
    StoreVariant,
    encode_cues,
    retrieve,
    write,
)
from ..observer import (
    OBSERVER_GRID,
    CacheLayout,
    ObserverBelief,
    SawCache,
    SawNothing,
    SawPresence,
    leakage_score,
    observer_update,
    pilfer_select,
)
from ..rng import RunStreams
from ..verifier import SignalSink, miss_rate
from .records import Family, RunRecord, STATUS_COMPLETED, finish_record

CANDIDATE_CELLS = 8
MAX_DEFERS_PER_CACHE = 3
OPENING_DECOYS = 2

# The trace shape key of each caching step, by action kind and visibility.
# Every record observes {"phase": 0.0} and acts at the {"x", "y"} centre of
# its cell. A real cache's option is the cache at (row, col); every other
# step's is a placeholder conceal at (0, 0) for 1 step.
_CACHING_RECORD = {
    (kind, visible): (
        ("phase",), (), None, kind, ("x", "y"),
        *((OptionKind.CACHE, ("col", "row")) if kind in ("cache", "recache")
          else (OptionKind.CONCEAL, ("col", "row", "steps"))),
        visible,
    )
    for kind in ("wait", "conceal", "decoy", "cache", "recache")
    for visible in (False, True)
}


@dataclass(frozen=True)
class FamilyCConfig:
    caches: int = 10
    pilfer_budget: int = 3
    visibility: float = 0.5
    decoy_cost: float = 1.0
    conceal_wait_cost: int = 2
    recovery_horizon: int = 50
    landmark_count: int = 25
    item_types: int = 4
    dig_radius: float = 0.05
    diffusion_rate: float = 0.02
    theta_obs: float = 0.02
    forbidden_zone: tuple[int, int, int, int] = (0, 0, 2, 2)  # r0, c0, r1, c1
    recovered_target: float = 0.5
    monitor_delay: int = 1
    verifier_fp: float = 0.0
    verifier_fn: float = 0.0

    def __post_init__(self):
        n_cells = OBSERVER_GRID * OBSERVER_GRID
        check_int_fields(self, (
            ("caches", 1, n_cells),
            ("pilfer_budget", 1, n_cells),
            ("conceal_wait_cost", 1, math.inf),
            ("recovery_horizon", 0, math.inf),
            ("landmark_count", 3, MAX_LANDMARKS),
            ("item_types", 1, math.inf),
            ("monitor_delay", 0, math.inf),
        ))
        check_number_fields(self, (
            ("visibility", 0.0, 1.0),
            ("decoy_cost", 0.0, math.inf),
            ("dig_radius", 0.0, math.inf),
            ("diffusion_rate", 0.0, 1.0),
            ("theta_obs", 0.0, 1.0),
            ("recovered_target", 0.0, 1.0),
        ))
        check_noise_rates("verifier_fp", self.verifier_fp, "verifier_fn", self.verifier_fn)
        if self.dig_radius == 0:
            raise ConfigurationError("dig_radius must be positive")
        zone = self.forbidden_zone
        if (
            not isinstance(zone, tuple)
            or len(zone) != 4
            or any(isinstance(v, bool) or not isinstance(v, int) for v in zone)
        ):
            raise ConfigurationError(
                f"forbidden_zone must be four integers (r0, c0, r1, c1), got {zone!r}"
            )
        r0, c0, r1, c1 = zone
        if not (0 <= r0 <= r1 < OBSERVER_GRID and 0 <= c0 <= c1 < OBSERVER_GRID):
            raise ConfigurationError("forbidden_zone must lie inside the grid")


@dataclass(frozen=True)
class AgentFlags:
    observer_aware: bool = True
    decoys_enabled: bool = True


def _cell_of(flat: int) -> tuple[int, int]:
    return int(flat) // OBSERVER_GRID, int(flat) % OBSERVER_GRID


def _cell_center(cell: tuple[int, int]) -> tuple[float, float]:
    return (cell[0] + 0.5) / OBSERVER_GRID, (cell[1] + 0.5) / OBSERVER_GRID


class CacheSitePolicy:
    """Pick a low-suspicion burial cell, or conceal (defer) when even the
    best candidate carries more inferred observer mass than the threshold.

    `avoid` holds the occupied cells. The run loop passes its `CacheLayout`'s
    cell set and rebinds it to the new layout's when a moved cache rebuilds
    the layout; a decoy dig draws from the same `candidates`."""

    def __init__(self, theta: float, wait_steps: int, avoid: set[tuple[int, int]]):
        self.theta = theta
        self.wait_steps = wait_steps
        self.avoid = avoid

    def _mass(self, ctx: PolicyContext, cell: tuple[int, int]) -> float:
        est = ctx.observer_estimate
        return est.mass_at(cell) if est is not None else 0.0

    def candidates(self, ctx: PolicyContext) -> list[tuple[int, int]]:
        """`CANDIDATE_CELLS` cells drawn from `ctx.rng`, less the avoided
        ones, or all of them when every one is avoided."""
        flat = ctx.rng.integers(0, OBSERVER_GRID * OBSERVER_GRID, size=CANDIDATE_CELLS)
        cells = [_cell_of(k) for k in flat]
        return [c for c in cells if c not in self.avoid] or cells

    def pick_cell(self, ctx: PolicyContext) -> tuple[int, int]:
        return min(self.candidates(ctx), key=lambda c: (self._mass(ctx, c), c))

    def select(self, belief: Belief | None, ctx: PolicyContext) -> OptionChoice:
        cell = self.pick_cell(ctx)
        if self._mass(ctx, cell) > self.theta:
            return OptionChoice(
                OptionKind.CONCEAL,
                {"steps": float(self.wait_steps), "row": float(cell[0]), "col": float(cell[1])},
            )
        return OptionChoice(
            OptionKind.CACHE, {"row": float(cell[0]), "col": float(cell[1])}
        )


def _in_zone(cell: tuple[int, int], zone: tuple[int, int, int, int]) -> bool:
    r0, c0, r1, c1 = zone
    return r0 <= cell[0] <= r1 and c0 <= cell[1] <= c1


def run_family_c(
    env: FamilyCConfig,
    flags: AgentFlags,
    ledger: CostLedger,
    seed: int,
    end_only: bool = False,
    trace: Trace | None = None,
) -> RunRecord:
    streams = RunStreams(seed)
    landmarks = LandmarkSet.sample(env.landmark_count, streams.env)
    store = MemoryStore(StoreVariant.CLUSTERED)

    adversary = ObserverBelief.uniform(env.diffusion_rate)

    sink = SignalSink(
        streams.verifier, env.verifier_fp, env.verifier_fn, env.monitor_delay, end_only
    )

    # Item values and the unaware agent's cell plan are drawn up front so
    # awareness toggles cannot shift the environment stream.
    values = streams.env.uniform(0.5, 1.5, size=env.caches)
    unaware_cells = [
        _cell_of(k)
        for k in streams.env.permutation(OBSERVER_GRID * OBSERVER_GRID)[: env.caches]
    ]

    placed: list[dict] = []
    next_item = 0  # items `next_item` on are still to cache
    defers_left = MAX_DEFERS_PER_CACHE  # for item `next_item`
    compromised: list[int] = []
    owes_decoys = flags.observer_aware and flags.decoys_enabled  # one after each cache
    decoys_owed = OPENING_DECOYS if owes_decoys else 0
    # The one record of the cells hiding something: a placed cache adds its
    # cell, a moved one rebuilds the layout, the site policy avoids its
    # cells, and leakage_score reads its indices every step.
    layout = CacheLayout()
    # Each cache or recache's (item type, cell centre), in step order, for
    # the memory writes after the phase.
    cache_writes: list[tuple[int, tuple[float, float]]] = []

    caching_horizon = 8 * env.caches
    # One visibility draw per step, all drawn at once: the same values as a
    # draw at each step, since nothing else in the run draws on this stream.
    # It keeps the adversary stream aligned across agent variants.
    visibility_draws = streams.adversary.random(size=caching_horizon).tolist()
    step = 0
    wait_remaining = 0
    decoys_used = 0
    decoy_compute = 0.0
    violations = 0
    # The observer-aware agent's fail verdicts on first placements, as
    # (deliver_at, cache index), in delivery order: no ground truth. The
    # cache is compromised unless it has moved since.
    inbox: deque[tuple[int, int]] = deque()
    sighted_cells: list[tuple[int, int]] = []  # raw sightings, in order

    policy = CacheSitePolicy(env.theta_obs, env.conceal_wait_cost, layout.cells)
    ctx = PolicyContext(rng=streams.agent)

    # The ledger's running sums that the caching phase charges, kept in
    # locals and written back before the pilfer phase.
    latency_cost, leak_cost = ledger.latency_cost, ledger.leak_cost
    repair_cost = ledger.repair_cost
    compute_used, budget = ledger.compute_used, ledger.budget

    # The caching phase runs for its full horizon whatever the agent does:
    # the adversary strike comes at a fixed time, idle steps diffuse its
    # belief, and every agent variant sees the same visibility draws.
    while step < caching_horizon:
        while inbox and inbox[0][0] <= step:
            i = inbox.popleft()[1]
            if not placed[i]["moved"]:
                compromised.append(i)

        if flags.observer_aware:
            ctx.observer_estimate = adversary
        action_kind = "wait"
        action_cell: tuple[int, int] | None = None
        item_idx = next_item

        if wait_remaining > 0:
            wait_remaining -= 1
        elif decoys_owed and flags.observer_aware:
            decoys_owed -= 1
            action_cell = min(policy.candidates(ctx), key=lambda c: (-policy._mass(ctx, c), c))
            action_kind = "decoy"
        elif flags.observer_aware and compromised:
            item_idx = compromised.pop(0)
            action_cell = policy.pick_cell(ctx)
            action_kind = "recache"
        elif next_item < env.caches:
            action_kind = "cache"
            if not flags.observer_aware:
                action_cell = unaware_cells[next_item]
            else:
                option = select_option(policy, None, ctx)
                action_cell = (int(option.params["row"]), int(option.params["col"]))
                if option.kind is OptionKind.CONCEAL and defers_left > 0:
                    defers_left -= 1
                    action_kind = "conceal"
                    wait_remaining = int(option.params["steps"]) - 1
            if action_kind == "cache":
                next_item += 1
                defers_left = MAX_DEFERS_PER_CACHE
                decoys_owed += owes_decoys
        is_real_cache = action_kind in ("cache", "recache")

        # Only physical digs can actually be seen.
        u = visibility_draws[step]
        visible = (is_real_cache or action_kind == "decoy") and u < env.visibility
        present_visible = action_kind == "conceal" and u < env.visibility

        compute = 0.0
        if is_real_cache:
            if action_kind == "recache":
                cache = placed[item_idx]
                cache["cell"] = action_cell
                cache["moved"] = True
                repair_cost += 1.0
                # Every placed cell came in through `layout.add`'s check or
                # from `pick_cell`, which draws only cells of the grid.
                layout = CacheLayout.of_checked(c["cell"] for c in placed)
                policy.avoid = layout.cells
            else:
                cache = {
                    "cell": action_cell,
                    "value": float(values[item_idx]),
                    "type": 1 + item_idx % env.item_types,
                    "moved": False,
                    "stolen": False,
                }
                placed.append(cache)
                layout.add(action_cell)
            cache_writes.append((cache["type"], _cell_center(action_cell)))
            compute = 1.0
        elif action_kind == "decoy":
            decoys_used += 1
            compute = env.decoy_cost
            decoy_compute += compute

        # Adversary inference, which the aware agent reads from the next step.
        # The adversary also keeps its raw sighting list: a dig it actually
        # watched is a remembered site, not just a blurred belief bump (and
        # it cannot tell decoy digs from real ones).
        if visible and action_cell is not None:
            event = SawCache(action_cell)
            if action_cell not in sighted_cells:
                sighted_cells.append(action_cell)
        elif present_visible and action_cell is not None:
            event = SawPresence(action_cell)
        else:
            event = SawNothing()
        adversary = observer_update(adversary, event)
        # Leakage is charged as per-step exposure: the mass the adversary
        # currently holds on cells that currently hide something.
        exposure = leakage_score(adversary, layout) if placed else 0.0
        # `accrue` restated, its 0.0 additions left out: latency 1.0, the
        # exposure as leak, repair 1.0 on a recache (above), then compute
        # against the budget. Its finiteness check has nothing to catch:
        # latency is 1.0, `leakage_score` clips exposure to [0, 1], repair is
        # 0 or 1, and compute is 0, 1 or the validated `decoy_cost`. Nothing
        # acts on exhaustion, yet one charge of the phase's total, as B
        # makes, could differ: the rounded `budget - compute_used` can fall
        # below a step's compute while the sum stays within the budget
        # (`decoy_cost` 0.7, budget 21.399999999999995, seed 0: exhausted).
        latency_cost += 1.0
        leak_cost += exposure
        if compute > budget - compute_used:
            compute_used = budget
            ledger.exhausted = True
        else:
            compute_used += compute

        violation = is_real_cache and visible
        violations += violation
        sig = sink.check("cache_while_observed", step, step, not violation)
        if (flags.observer_aware and action_kind == "cache"
                and sig is not None and not sig["verdict"]):
            inbox.append((sig["emitted_at"], len(placed) - 1))

        if trace is not None:
            # Values in key order: phase, x, y, then col, row (and steps).
            key = _CACHING_RECORD[action_kind, visible]
            px, py = _cell_center(action_cell) if action_cell else (0.0, 0.0)
            if is_real_cache:
                trace.append(step, key, 0.0, px, py, action_cell[1], action_cell[0])
            else:
                trace.append(step, key, 0.0, px, py, 0.0, 0.0, 1.0)
        step += 1
    ledger.latency_cost, ledger.leak_cost = latency_cost, leak_cost
    ledger.repair_cost, ledger.compute_used = repair_cost, compute_used

    # The phase's memory writes, in step order, so episode ids follow the
    # steps; one `encode_cues` pass gives each the cue it would have had at
    # its step, since the landmarks never move.
    cues = encode_cues([location for _, location in cache_writes], landmarks)
    for (item_type, location), cue in zip(cache_writes, cues):
        write(store, landmarks, item_type, location, cue)

    # Pilfer phase: the adversary digs its best guesses.
    pilfer_step = step
    leakage = leakage_score(adversary, layout) if placed else 0.0
    # Remembered sightings are dug first; belief mass guides what is left of
    # the budget. Decoy and stale sightings waste digs, which is the point.
    chosen: list[tuple[int, int]] = list(sighted_cells[: env.pilfer_budget])
    if len(chosen) < env.pilfer_budget:
        ranked = pilfer_select(adversary, min(400, env.pilfer_budget + len(chosen)))
        for cell in ranked:
            if len(chosen) >= env.pilfer_budget:
                break
            if cell not in chosen:
                chosen.append(cell)
    chosen_set = set(chosen)
    stolen_count = 0
    for cache in placed:
        if cache["cell"] in chosen_set:
            cache["stolen"] = True
            stolen_count += 1

    # Recovery: retrieve each cache through memory, dig, and re-cache losses.
    # It reaches the first `recovery_horizon` caches, one step each; their
    # query cues are encoded in one pass.
    recovered_value = 0.0
    recovery_probes = 0
    corrections = 0
    reached = placed[: env.recovery_horizon]
    centres = [_cell_center(cache["cell"]) for cache in reached]
    for cache, (x, y), cue in zip(reached, centres, encode_cues(centres, landmarks)):
        result = retrieve(store, Query(item_type=cache["type"], cue=cue), landmarks)
        recovery_probes += result.probes_used
        step_compute = float(result.probes_used)
        repair = 0.0
        if cache["stolen"]:
            corrections += 1
            repair = 1.0
            step_compute += 1.0
        else:
            ok = (
                result.decoded_location is not None
                and abs(result.decoded_location[0] - x) <= env.dig_radius
                and abs(result.decoded_location[1] - y) <= env.dig_radius
            )
            if ok:
                recovered_value += cache["value"]
        accrue(ledger, repair=repair, compute=step_compute)
        step += 1

    total_value = float(sum(c["value"] for c in placed)) if placed else 1.0
    recovered_fraction = recovered_value / total_value if total_value else 0.0

    in_zone = any(_in_zone(c["cell"], env.forbidden_zone) for c in placed)
    sink.check("no_cache_in_forbidden_zone", 0, step, not in_zone)
    sink.check("recovered_target", 0, step, recovered_fraction >= env.recovered_target)
    sink.flush()

    accrue(ledger, task=max(0.0, 1.0 - recovered_fraction))

    monitor_signals = [s for s in sink.signals if s["predicate_id"] == "cache_while_observed"]

    record = RunRecord(family="C", variant="", seed=seed, status=STATUS_COMPLETED)
    record.goal_verdict = sink.goal_verdict("recovered_target")
    record.metrics = {
        "recovered_value": recovered_value,
        "recovered_fraction": recovered_fraction,
        "leakage": leakage,
        "verifier_miss_rate": miss_rate(monitor_signals, pilfer_step),
        "violations": float(violations),
        "decoys_used": float(decoys_used),
        "recache_moves": float(len(cache_writes) - len(placed)),
        "caches_pilfered": float(stolen_count),
        "post_hoc_corrections": float(corrections),
        "zone_breaches": float(in_zone),
    }
    record.kappa_by_source = {
        "cache_writes": float(len(cache_writes)),
        "decoys": decoy_compute,
        "recovery_probes": float(recovery_probes),
        "corrections": float(corrections),
    }
    record.signals = sink.signals
    record.observer_grid = adversary.dump_row_major()
    return finish_record(record, ledger)


def _run(env, agent, ledger, seed, trace):
    flags = AgentFlags(agent["observer_aware"], agent["decoys"])
    end_only = agent["verifier_placement"] == "end_only"
    return run_family_c(env, flags, ledger, seed, end_only, trace)


def _unread(env: FamilyCConfig, agent: dict) -> list[tuple[str, str]]:
    if env.recovery_horizon < env.caches:
        return [("env.recovery_horizon",
                 f"{env.recovery_horizon} is below env.caches {env.caches}: "
                 f"recovery stops after the first {env.recovery_horizon} caches")]
    return []


FAMILY = Family(
    env_config=FamilyCConfig,
    agent={"observer_aware": True, "decoys": True, "verifier_placement": "in_loop"},
    choices={"verifier_placement": ("in_loop", "end_only")},
    ablations={
        "no_observer_model": ("observer_aware", False),
        "end_only_checking": ("verifier_placement", "end_only"),
    },
    run=_run,
    unread=_unread,
)
