"""Family D: role-differentiated plan verification.

A universe of boolean constraints over short symbol plans is sampled from
four templates (forbidden symbol, required symbol, forbidden adjacent pair,
positional parity ban). A hill climb with full knowledge then searches for a
witness plan, and the constraints the witness still violates are dropped, so
every instance is solvable in principle. The universe depends on the seed
and three env keys alone: a seed's variants and sweeps share one, built once.

Roles sample partial knowledge of the universe. The proposer hill-climbs a
plan against what it knows; the executor vetoes plans violating its own
sample; the checker evaluates its coverage set through noisy verifiers.
Rejections trigger repair rounds in which the violated constraint ids are
disclosed to the proposer. In differentiated mode each role draws an
independent sample; in single-agent mode one shared sample plays every role,
so the roles share every blind spot.

After release, an adversary probes random constraints. A silent failure is a
released violation nobody in the pipeline caught that the adversary then
finds. Correlated error is the fraction of the universe invisible to both
the proposer's and the checker's original samples.

The witness and proposer climbs go through `_hill_climb`, which compiles
their constraints into per-feature weights (symbol presence, adjacent pair,
parity class) and scores each single-symbol mutation by its change in
violation count. Everything else evaluates constraints directly through
`Constraint.satisfied`, the reference for what a constraint means.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from ..core.state import ConfigurationError, OptionKind, Trace
from ..errors import check_int_fields, check_noise_rates, check_number_fields
from ..ledger import CostLedger, accrue
from ..rng import RunStreams, Substream
from ..verifier import SignalSink
from .records import Family, RunRecord, STATUS_COMPLETED, finish_record

HILLCLIMB_ITERATIONS = 200
WITNESS_ITERATIONS = 2000
MAX_REPAIR_ROUNDS = 5
CONSTRAINT_KINDS = ("forbid_symbol", "require_symbol", "forbid_adjacent", "parity_ban")


class RoleMode(str, Enum):
    SINGLE_AGENT = "single_agent"
    DIFFERENTIATED = "differentiated"


@dataclass(frozen=True)
class Constraint:
    """One boolean predicate over plans, of a kind in `CONSTRAINT_KINDS`."""

    cid: int
    kind: str
    a: int
    b: int = 0

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ConfigurationError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "parity_ban" and self.b not in (0, 1):
            raise ConfigurationError(f"parity_ban parity b must be 0 or 1, got {self.b!r}")

    def satisfied(self, plan: tuple[int, ...]) -> bool:
        if self.kind == "forbid_symbol":
            return self.a not in plan
        if self.kind == "require_symbol":
            return self.a in plan
        if self.kind == "forbid_adjacent":
            return (self.a, self.b) not in zip(plan, plan[1:])
        return self.a not in plan[self.b::2]


@dataclass(frozen=True)
class FamilyDConfig:
    n_constraints: int = 40
    plan_length: int = 12
    alphabet_size: int = 6
    coverage: float | None = None  # checker coverage fraction; None -> knowledge_fraction
    knowledge_fraction: float = 0.6
    adversary_probes: int = 20

    def __post_init__(self):
        check_int_fields(self, (
            ("n_constraints", 1, math.inf),
            ("plan_length", 2, math.inf),
            ("alphabet_size", 2, math.inf),
            ("adversary_probes", 0, math.inf),
        ))
        check_number_fields(self, (("knowledge_fraction", 0.0, 1.0),))
        if self.knowledge_fraction == 0:
            raise ConfigurationError("knowledge_fraction must lie in (0, 1]")
        if self.coverage is not None:
            check_number_fields(self, (("coverage", 0.0, 1.0),))


def _sample_universe(config: FamilyDConfig, stream: Substream) -> list[Constraint]:
    """Draw constraints, steering clear of direct contradictions."""
    alphabet = config.alphabet_size
    required: set[int] = set()
    forbidden: set[int] = set()
    out: list[Constraint] = []
    kinds = stream.integers(0, 4, size=config.n_constraints * 3)
    symbols = stream.integers(0, alphabet, size=config.n_constraints * 6)
    ki = si = 0
    while len(out) < config.n_constraints and ki < len(kinds):
        kind = int(kinds[ki]); ki += 1
        s = int(symbols[si % len(symbols)]); si += 1
        t = int(symbols[si % len(symbols)]); si += 1
        cid = len(out)
        if kind == 0 and s not in required and len(forbidden) < alphabet - 2:
            forbidden.add(s)
            out.append(Constraint(cid, "forbid_symbol", s))
        elif kind == 1 and s not in forbidden and len(required) < config.plan_length // 2:
            required.add(s)
            out.append(Constraint(cid, "require_symbol", s))
        elif kind == 2:
            out.append(Constraint(cid, "forbid_adjacent", s, t))
        elif kind == 3:
            out.append(Constraint(cid, "parity_ban", s, t % 2))
        # Skipped draws fall through; the oversized kind/symbol pools make
        # running dry effectively impossible.
    while len(out) < config.n_constraints:
        s = int(symbols[si % len(symbols)]); si += 1
        t = int(symbols[si % len(symbols)]); si += 1
        out.append(Constraint(len(out), "forbid_adjacent", s, t))
    return out


def _violations(plan: tuple[int, ...], constraints: Sequence[Constraint]) -> list[int]:
    return [c.cid for c in constraints if not c.satisfied(plan)]


def _hill_climb(
    plan: tuple[int, ...],
    known: list[Constraint],
    alphabet: int,
    stream: Substream,
    iterations: int,
) -> tuple[tuple[int, ...], int]:
    """Greedy single-symbol mutation accepting non-worsening moves.

    Each trial is scored in O(1) by its change in the number of violated
    `known` constraints, which are first compiled into integer weights keyed
    by the features they mention:

    - a symbol: +1 per forbid_symbol, -1 per require_symbol, so that the
      presence of the symbol adds its weight to the violation count;
    - an adjacent pair (a, b), keyed by the int `a * alphabet + b`: +1 per
      forbid_adjacent;
    - a symbol in one parity class of positions: +1 per parity_ban.

    The climb keeps the plan and, for each mentioned feature, how often the
    plan contains it; a constraint is violated exactly when the count of its
    feature is non-zero (for require_symbol: zero). Mutating `pos` from `old`
    to `new` touches only the counts of `old` and `new`, their counts in the
    parity class of `pos`, and the adjacent pairs through `pos` (at most two
    leave and two arrive, and a leaving pair may equal an arriving one); a
    trial collects pair steps only when one of those pairs is a feature.
    Counts change only when the move is accepted. Features are dict keys, so
    memory grows with the constraints, not with `alphabet`.

    Every trial counts as one plan evaluation, a no-op mutation included.
    Returns the plan and the number of plan evaluations (compute burden).
    """
    positions = stream.integers(0, len(plan), size=iterations)
    symbols = stream.integers(0, alphabet, size=iterations)
    current = list(plan)
    current_bad = len(_violations(plan, known))
    evals = 1

    presence_w: dict[int, int] = {}
    pair_w: dict[int, int] = {}
    parity_w: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for c in known:
        if c.kind == "forbid_symbol":
            presence_w[c.a] = presence_w.get(c.a, 0) + 1
        elif c.kind == "require_symbol":
            presence_w[c.a] = presence_w.get(c.a, 0) - 1
        elif c.kind == "forbid_adjacent":
            key = c.a * alphabet + c.b
            pair_w[key] = pair_w.get(key, 0) + 1
        else:
            parity_w[c.b][c.a] = parity_w[c.b].get(c.a, 0) + 1
    symbol_n = _feature_counts(presence_w, current)
    pair_n = _feature_counts(pair_w, (a * alphabet + b for a, b in zip(current, current[1:])))
    parity_n = (
        _feature_counts(parity_w[0], current[0::2]),
        _feature_counts(parity_w[1], current[1::2]),
    )
    last = len(current) - 1

    for pos, new in zip(positions.tolist(), symbols.tolist()):
        if current_bad == 0:
            break
        evals += 1
        old = current[pos]
        if new == old:
            continue
        delta = 0
        if symbol_n.get(old) == 1:
            delta -= presence_w[old]
        if symbol_n.get(new) == 0:
            delta += presence_w[new]
        class_w, class_n = parity_w[pos & 1], parity_n[pos & 1]
        if class_n.get(old) == 1:
            delta -= class_w[old]
        if class_n.get(new) == 0:
            delta += class_w[new]
        pair_steps = None
        if pos:
            left = current[pos - 1] * alphabet
            if left + old in pair_w:
                pair_steps = {left + old: -1}
            if left + new in pair_w:
                pair_steps = pair_steps or {}
                pair_steps[left + new] = 1
        if pos < last:
            # A pair through the right neighbour may equal one through
            # the left neighbour, so these steps add to the ones above.
            right = current[pos + 1]
            key = old * alphabet + right
            if key in pair_w:
                pair_steps = pair_steps or {}
                pair_steps[key] = pair_steps.get(key, 0) - 1
            key = new * alphabet + right
            if key in pair_w:
                pair_steps = pair_steps or {}
                pair_steps[key] = pair_steps.get(key, 0) + 1
        if pair_steps:
            for key, step in pair_steps.items():
                n = pair_n[key]
                delta += pair_w[key] * ((n + step > 0) - (n > 0))
        if delta > 0:
            continue
        current[pos] = new
        current_bad += delta
        for counts in (symbol_n, class_n):
            if old in counts:
                counts[old] -= 1
            if new in counts:
                counts[new] += 1
        if pair_steps:
            for key, step in pair_steps.items():
                pair_n[key] += step
    return tuple(current), evals


def _feature_counts(weights: dict, features) -> dict:
    """How often each key of `weights` occurs in `features`."""
    counts = dict.fromkeys(weights, 0)
    for key in features:
        if key in counts:
            counts[key] += 1
    return counts


@functools.lru_cache(maxsize=1)
def _solvable_universe(
    n_constraints: int, plan_length: int, alphabet_size: int, seed: int
) -> tuple[Constraint, ...]:
    """`seed`'s universe less what its witness plan, climbed with full
    knowledge, violates (a median of 3 dropped over seeds 0-199 of the default
    config). Only this draws from the seed's env stream and it reads no other
    env key, so a seed's variants and sweep values of other keys share it."""
    env = FamilyDConfig(n_constraints, plan_length, alphabet_size)
    stream = Substream(seed, "env")
    universe = _sample_universe(env, stream)
    witness = tuple(int(v) for v in stream.integers(0, env.alphabet_size, size=env.plan_length))
    witness, _ = _hill_climb(witness, universe, env.alphabet_size, stream, WITNESS_ITERATIONS)
    dropped = set(_violations(witness, universe))
    return tuple(c for c in universe if c.cid not in dropped)


def _sample_known(
    universe: Sequence[Constraint], fraction: float, stream: Substream
) -> set[int]:
    k = int(round(fraction * len(universe)))  # fraction lies in [0, 1]
    if k == len(universe):
        return {c.cid for c in universe}
    picked = stream.choice(len(universe), size=k, replace=False)
    return {universe[int(i)].cid for i in picked}


def run_family_d(
    env: FamilyDConfig,
    mode: RoleMode | str,
    ledger: CostLedger,
    seed: int,
    verifier_fp: float = 0.0,
    verifier_fn: float = 0.0,
    trace: Trace | None = None,
) -> RunRecord:
    mode = RoleMode(mode)
    streams = RunStreams(seed)
    universe = _solvable_universe(env.n_constraints, env.plan_length, env.alphabet_size, seed)
    by_id = {c.cid: c for c in universe}
    n = len(universe)

    kf = env.knowledge_fraction
    if mode is RoleMode.SINGLE_AGENT:
        # One sample plays every role; none of the three sets is mutated.
        k_proposer = k_executor = k_checker = _sample_known(universe, kf, streams.agent)
    else:
        k_proposer = _sample_known(universe, kf, streams.agent)
        k_executor = _sample_known(universe, kf, streams.agent)
        k_checker = _sample_known(universe, kf, streams.agent)
    if env.coverage is not None:
        checker_coverage = _sample_known(universe, env.coverage, streams.agent)
    else:
        checker_coverage = set(k_checker)

    checker = SignalSink(streams.verifier, verifier_fp, verifier_fn)

    proposer_known_ids = set(k_proposer)
    plan = tuple(int(v) for v in streams.agent.integers(0, env.alphabet_size, size=env.plan_length))
    repair_rounds = 0
    proposer_evals = 0
    executor_evals = 0
    checker_evals = 0
    caught_by_checker: set[int] = set()
    step = 0
    # The trace shape key of a proposal: the repair round it is proposed
    # in, and the plan's symbols keyed by position.
    plan_record = (("round",), (), None, "plan", tuple(range(env.plan_length)),
                   OptionKind.PROPOSE, (), False)

    while True:
        known = [by_id[cid] for cid in sorted(proposer_known_ids)]
        plan, evals = _hill_climb(plan, known, env.alphabet_size, streams.agent, HILLCLIMB_ITERATIONS)
        proposer_evals += evals
        accrue(ledger, latency=1.0, compute=float(evals))
        if trace is not None:
            trace.append(len(trace), plan_record, repair_rounds, *plan)
        step += 1

        exec_bad = [cid for cid in sorted(k_executor) if not by_id[cid].satisfied(plan)]
        executor_evals += len(k_executor)
        accrue(ledger, compute=float(len(k_executor)))
        if exec_bad and repair_rounds < MAX_REPAIR_ROUNDS:
            proposer_known_ids.update(exec_bad)
            repair_rounds += 1
            accrue(ledger, repair=1.0)
            continue

        checker_bad: list[int] = []
        for cid in sorted(checker_coverage):
            sig = checker.check(f"c{cid}", step, step, by_id[cid].satisfied(plan))
            checker_evals += 1
            if sig["verdict"] is False:
                checker_bad.append(cid)
                if not sig["ground_truth_verdict"]:
                    caught_by_checker.add(cid)
        accrue(ledger, compute=float(len(checker_coverage)))
        step += 1
        if checker_bad and repair_rounds < MAX_REPAIR_ROUNDS:
            proposer_known_ids.update(checker_bad)
            repair_rounds += 1
            accrue(ledger, repair=1.0)
            continue
        break

    # Release. The adversary probes a random subset of the universe.
    released_violations = set(_violations(plan, universe))
    probed = {
        universe[int(i)].cid
        for i in streams.adversary.choice(n, size=min(env.adversary_probes, n), replace=False)
    }
    # Disclosed-in-repair constraints count as known: a knowingly released
    # violation is a deadline compromise, not a silent one.
    caught = released_violations & (proposer_known_ids | k_executor | caught_by_checker)
    uncaught = released_violations - caught
    adversary_findings = probed & released_violations
    silent_failure = int(bool(adversary_findings & uncaught))

    correlated_blind = [
        c.cid for c in universe if c.cid not in k_proposer and c.cid not in k_checker
    ]
    correlated_error_rate = len(correlated_blind) / n if n else 0.0

    # The exact goal verifier, drawn after every checker signal.
    goal = SignalSink(streams.verifier)
    goal.check("plan_satisfies_universe", 0, step, not released_violations)

    accrue(ledger, task=float(len(released_violations)))

    record = RunRecord(family="D", variant="", seed=seed, status=STATUS_COMPLETED)
    record.goal_verdict = goal.goal_verdict("plan_satisfies_universe")
    record.metrics = {
        "silent_failure": float(silent_failure),
        "correlated_error_rate": correlated_error_rate,
        "released_violations": float(len(released_violations)),
        "uncaught_violations": float(len(uncaught)),
        "repair_rounds": float(repair_rounds),
        "universe_size": float(n),
        "adversary_findings": float(len(adversary_findings)),
    }
    record.kappa_by_source = {
        "proposer_evals": float(proposer_evals),
        "executor_evals": float(executor_evals),
        "checker_evals": float(checker_evals),
    }
    record.signals = (checker.signals + goal.signals)[-20:]
    return finish_record(record, ledger)


def _check_agent(agent: dict) -> None:
    check_noise_rates(
        "agent.checker_fp", agent["checker_fp"], "agent.checker_fn", agent["checker_fn"]
    )


def _unread(env: FamilyDConfig, agent: dict) -> list[tuple[str, str]]:
    # Off its default only: the default probes every constraint of a small
    # universe by design.
    probes = env.adversary_probes
    if probes != FamilyDConfig.adversary_probes and probes > env.n_constraints:
        return [("env.adversary_probes",
                 f"{probes} exceeds env.n_constraints {env.n_constraints}; "
                 "the adversary probes each constraint at most once")]
    return []


def _run(env, agent, ledger, seed, trace):
    return run_family_d(
        env, agent["mode"], ledger, seed, float(agent["checker_fp"]),
        float(agent["checker_fn"]), trace,
    )


FAMILY = Family(
    env_config=FamilyDConfig,
    agent={"mode": "differentiated", "checker_fp": 0.0, "checker_fn": 0.0},
    choices={"mode": ("single_agent", "differentiated")},
    ablations={"single_agent": ("mode", "single_agent")},
    run=_run,
    check_agent=_check_agent,
    unread=_unread,
)
