"""Experiment orchestration: config parsing, ablation grids, seeded parallel
execution, and report emission.

A config names one benchmark family, an environment block, an agent block,
a list of single-switch ablations, a seed range, and the cost-ledger
weights. The grid is the baseline plus one variant per ablation, optionally
crossed with a sweep over one environment key, run over every seed. Results
are written as line-delimited JSON plus plot-ready CSV; all run output is
byte-deterministic for a fixed config, whatever the worker count.

Everything family-specific comes from the family registry, `envs.FAMILIES`:
each family's env config class, the agent keys it reads with their
defaults, its ablations, its agent check and its cell runner.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .core.state import ConfigurationError, InputError, Trace
from .envs import FAMILIES, RunRecord, STATUS_FAILED
from .errors import is_finite_number
from .ledger import BOOTSTRAP_RESAMPLES, CostLedger, aggregate, constraint_check, resampled
from .rng import Substream

WORST_RUNS_LISTED = 3
# The steps a trace window holds before its signal's segment starts.
LEAD_IN = 20

@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    seed_start: int
    seed_stop: int  # inclusive
    env: object
    agent: dict
    ablations: tuple[str, ...]
    ledger: dict
    sweep_key: str | None
    sweep_values: tuple | None
    output_dir: str

    def seeds(self) -> range:
        return range(self.seed_start, self.seed_stop + 1)


def _fail(key: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"config key {key!r}: {message}")


def _parse_seeds(value) -> tuple[int, int]:
    if isinstance(value, int) and not isinstance(value, bool):
        start = stop = value
    elif isinstance(value, str) and ".." in value:
        a, _, b = value.partition("..")
        try:
            start, stop = int(a), int(b)
        except ValueError as exc:
            raise _fail("seeds", f"cannot parse {value!r} as 'a..b'") from exc
        if stop < start:
            raise _fail("seeds", "range end precedes start")
    else:
        raise _fail("seeds", "expected an integer or an 'a..b' range string")
    if start < 0:
        raise _fail("seeds", "seeds must be non-negative")
    return start, stop


def _object_block(raw: dict, key: str) -> dict:
    block = raw.get(key, {})
    if not isinstance(block, dict):
        raise _fail(key, "expected a JSON object")
    return block


def _env_value(cls, key: str, value):
    """`value` for env field `key` of `cls`, a JSON list turned back into a
    tuple where the field's default is one."""
    default = getattr(cls.__dataclass_fields__.get(key), "default", None)
    return tuple(value) if isinstance(value, list) and isinstance(default, tuple) else value


def _build_env(family: str, block: dict):
    cls = FAMILIES[family].env_config
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in block.items():
        if key not in names:
            raise _fail(f"env.{key}", f"unknown key for family {family}")
        kwargs[key] = _env_value(cls, key, value)
    try:
        return cls(**kwargs)
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"config key 'env': {exc}") from exc


def _build_agent(family: str, block: dict) -> dict:
    entry = FAMILIES[family]
    agent = dict(entry.agent)
    for key, value in block.items():
        if key not in entry.agent:
            raise _fail(f"agent.{key}", f"unknown key for family {family}")
        if key in entry.choices and value not in entry.choices[key]:
            raise _fail(f"agent.{key}", f"must be one of {sorted(entry.choices[key])}")
        default = entry.agent[key]
        if isinstance(default, bool) and not isinstance(value, bool):
            raise _fail(f"agent.{key}", "expected a boolean")
        if isinstance(default, float) and not is_finite_number(value):
            raise _fail(f"agent.{key}", "expected a finite number")
        agent[key] = value
    try:
        entry.check_agent(agent)
    except ConfigurationError as exc:
        raise ConfigurationError(f"config key 'agent': {exc}") from exc
    return agent


def _build_ledger(block: dict) -> dict:
    out = {f.name: f.default for f in dataclasses.fields(CostLedger) if f.init}
    for key, value in block.items():
        if key not in out:
            raise _fail(f"ledger.{key}", "unknown key")
        if not is_finite_number(value):
            raise _fail(f"ledger.{key}", "expected a finite number")
        out[key] = float(value)
    try:
        CostLedger(**out)  # range validation
    except InputError as exc:
        raise ConfigurationError(f"config key 'ledger': {exc}") from exc
    return out


_TOP_LEVEL_KEYS = {
    "family", "seeds", "env", "agent", "ablations", "ledger", "sweep",
    "output_dir", "version",
}


def parse_config(document: str) -> ExperimentConfig:
    """Parse, validate, and default-resolve a JSON experiment document."""
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not well-formed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    for key in raw:
        if key not in _TOP_LEVEL_KEYS:
            raise _fail(key, "unknown top-level key")

    family = raw.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise _fail("family", f"must be one of {sorted(FAMILIES)}")
    if "version" in raw and raw["version"] != __version__:
        raise _fail("version", f"{raw['version']!r} does not match hoardbench {__version__}")
    seed_start, seed_stop = _parse_seeds(raw.get("seeds", "0..0"))
    env_block = _object_block(raw, "env")
    env = _build_env(family, env_block)
    agent = _build_agent(family, _object_block(raw, "agent"))
    ledger = _build_ledger(_object_block(raw, "ledger"))

    ablations = raw.get("ablations", [])
    if not isinstance(ablations, list) or not all(isinstance(n, str) for n in ablations):
        raise _fail("ablations", "expected a list of ablation names")
    known = FAMILIES[family].ablations
    for i, name in enumerate(ablations):
        if name not in known:
            raise _fail(
                f"ablations.{name}",
                f"not an ablation of family {family}; known: {sorted(known)}",
            )
        if name in ablations[:i]:
            raise _fail(f"ablations.{name}", "listed more than once")

    sweep_key = None
    sweep_values = None
    if "sweep" in raw:
        sweep = raw["sweep"]
        if not isinstance(sweep, dict) or set(sweep) != {"key", "values"}:
            raise _fail("sweep", "expected an object with exactly 'key' and 'values'")
        sweep_key = sweep["key"]
        names = {f.name for f in dataclasses.fields(FAMILIES[family].env_config)}
        if not isinstance(sweep_key, str) or sweep_key not in names:
            raise _fail("sweep.key", f"not an env key of family {family}")
        if not isinstance(sweep["values"], list) or not sweep["values"]:
            raise _fail("sweep.values", "expected a non-empty list")
        sweep_values = tuple(sweep["values"])
        labels = [str(v) for v in sweep_values]
        for i, v in enumerate(sweep_values):
            _build_env(family, {**env_block, sweep_key: v})
            if labels[i] in labels[:i]:
                raise _fail("sweep.values", f"{labels[i]} listed more than once")

    output_dir = raw.get("output_dir", "results")
    if not isinstance(output_dir, str):
        raise _fail("output_dir", "expected a string path")

    return ExperimentConfig(
        family=family,
        seed_start=seed_start,
        seed_stop=seed_stop,
        env=env,
        agent=agent,
        ablations=tuple(ablations),
        ledger=ledger,
        sweep_key=sweep_key,
        sweep_values=sweep_values,
        output_dir=output_dir,
    )


def resolved_document(config: ExperimentConfig) -> dict:
    """Fully resolved echo of a config; parse(echo(c)) round-trips to c."""
    env = dataclasses.asdict(config.env)
    for key in list(env):
        if isinstance(env[key], tuple):
            env[key] = list(env[key])
    doc = {
        "family": config.family,
        "seeds": f"{config.seed_start}..{config.seed_stop}",
        "env": env,
        "agent": dict(config.agent),
        "ablations": list(config.ablations),
        "ledger": dict(config.ledger),
        "output_dir": config.output_dir,
        "version": __version__,
    }
    if config.sweep_key is not None:
        doc["sweep"] = {"key": config.sweep_key, "values": list(config.sweep_values)}
    return doc


def config_warnings(config: ExperimentConfig) -> list[str]:
    """One message per env key that some cell of the grid sets to no
    effect (`Family.unread`), naming the key as a config error does."""
    entry = FAMILIES[config.family]
    messages: dict[str, None] = {}
    for _, agent, value in _variant_table(config).values():
        for key, reason in entry.unread(_cell_env(config, value), agent):
            messages[f"config key {key!r}: {reason}"] = None
    return list(messages)


# ---------------------------------------------------------------------------
# Grid execution
# ---------------------------------------------------------------------------


def variant_agents(config: ExperimentConfig) -> list[tuple[str, dict]]:
    """Baseline plus one single-switch variant per configured ablation."""
    out = [("baseline", dict(config.agent))]
    for name in config.ablations:
        key, value = FAMILIES[config.family].ablations[name]
        patched = dict(config.agent)
        patched[key] = value
        out.append((name, patched))
    return out


def _variant_label(name: str, sweep_key: str | None, sweep_value) -> str:
    if sweep_key is None:
        return name
    return f"{name}@{sweep_key}={sweep_value}"


def _variant_table(config: ExperimentConfig) -> dict[str, tuple[str, dict, object]]:
    """Every variant label of the grid, in report order (variant, then sweep
    value), mapped to its variant name, agent and sweep value."""
    sweep_values = config.sweep_values if config.sweep_key is not None else (None,)
    return {
        _variant_label(name, config.sweep_key, value): (name, agent, value)
        for name, agent in variant_agents(config)
        for value in sweep_values
    }


@dataclass
class CellResult:
    """One finished cell. `trace` is its step trace while it is one of the
    cells failures.md lists and it has a failing signal (`_window_signal`),
    the cells failures.md writes a trace window for (see `run_grid`); else
    None. `seconds` is the wall time the cell took in the grid, None when it
    is not known."""

    variant: str
    seed: int
    record: RunRecord
    trace: Trace | None = None
    seconds: float | None = None


@dataclass
class ResultSet:
    """A grid's cells, and the `source_sha256` of the code that ran them:
    the running code's for a grid just run, the one timing.json names (or
    None) for results read back from a directory."""

    config: ExperimentConfig
    cells: list[CellResult] = field(default_factory=list)
    wallclock: dict[str, float] = field(default_factory=dict)
    source_sha256: str | None = None

    def any_failed(self) -> bool:
        return any(c.record.status == STATUS_FAILED for c in self.cells)


def run_one(
    config: ExperimentConfig,
    agent: dict,
    seed: int,
    sweep_value=None,
    trace: Trace | None = None,
    *,
    record_into: Trace | None = None,
) -> RunRecord:
    """Execute a single cell with a fresh ledger and stream bundle.

    In a sweep, `sweep_value` replaces the swept env key, None included.
    `record_into` records the steps of a grid cell, as every grid cell does.
    `trace` is for a failure-trace replay: re-running a cell only to record
    its steps, which `report --in` does for each listed cell that gets a
    trace window, and which gives any cell's whole trace.
    Both fill the Trace the same way; they stay apart because a call with
    `trace` is a replay, and perfbench's span tracer (`perfbench/tracing.py`)
    counts it as one rather than as a grid cell.
    """
    if trace is None:
        trace = record_into
    return FAMILIES[config.family].run(
        _cell_env(config, sweep_value), agent, CostLedger(**config.ledger), seed, trace
    )


def _cell_env(config: ExperimentConfig, sweep_value):
    """The env of a cell at `sweep_value`: in a sweep it replaces the swept
    key, None included."""
    env = config.env
    if config.sweep_key is None:
        return env
    return dataclasses.replace(
        env, **{config.sweep_key: _env_value(type(env), config.sweep_key, sweep_value)}
    )


def _run_cell(
    payload: tuple[ExperimentConfig, str, dict, object, int],
) -> tuple[RunRecord, float, Trace | None]:
    """Worker entry point: runs one cell, recording its steps. Returns the
    finished record, the cell's wall seconds and its trace when it has a
    failing signal (`_window_signal`), else None, so a pool worker ships no
    other trace back. A failed cell has no signal: a partial trace is never
    kept."""
    started = time.monotonic()
    config, variant, agent, sweep_value, seed = payload
    label = _variant_label(variant, config.sweep_key, sweep_value)
    trace: Trace | None = Trace()
    try:
        record = run_one(config, agent, seed, sweep_value, record_into=trace)
        record.variant = label
    except Exception as exc:  # worker failures become Failed cells, never drops
        record = RunRecord(
            family=config.family, variant=label, seed=seed,
            status=STATUS_FAILED, error=f"{type(exc).__name__}: {exc}",
        )
        trace = None
    if _window_signal(record.signals) is None:
        trace = None
    return record, time.monotonic() - started, trace


def run_grid(config: ExperimentConfig, jobs: int = 1) -> ResultSet:
    """Run baseline and ablation variants over the full seed range.

    Cells are independent. They run seed-major (seed, sweep value, variant),
    so a seed's cells, which draw the same env stream, run back to back and
    can share what they build from it (B's world, D's universe); results are
    ordered by (variant, sweep value, seed), so worker count never changes
    the bytes.

    Every cell records its step trace as it runs, so `write_report` re-runs
    nothing, but keeps it only when it has a failing signal: failures.md
    writes a window of no other trace, and a pool worker ships no other
    back. Per variant, the grid keeps the traces of the cells failures.md
    will list, its first `WORST_RUNS_LISTED` completed cells so far by
    `_rank`, and drops every other trace as soon as it is ranked out, which
    bounds the memory traces hold.
    """
    sweep_values = config.sweep_values if config.sweep_key is not None else (None,)
    variants = variant_agents(config)
    payloads = [
        (config, variant, agent, sweep_value, seed)
        for seed in config.seeds()
        for sweep_value in sweep_values
        for variant, agent in variants
    ]

    started = time.monotonic()
    if jobs <= 1:
        cells = _keeping_listed_traces(map(_run_cell, payloads))
    else:
        workers = min(jobs, len(payloads))
        # Chunks of 4 cut IPC on large grids; a small grid's chunks shrink so
        # that every worker gets one.
        chunksize = min(4, -(-len(payloads) // workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = _keeping_listed_traces(pool.map(_run_cell, payloads, chunksize=chunksize))
    elapsed = time.monotonic() - started

    # cells[v + j * nv::ns * nv] are variant v's at sweep value j, by seed.
    ns, nv = len(sweep_values), len(variants)
    cells = [c for v in range(nv) for j in range(ns) for c in cells[v + j * nv :: ns * nv]]
    result = ResultSet(config=config, cells=cells, source_sha256=source_sha256())
    result.wallclock = {"total_seconds": elapsed, "jobs": float(jobs)}
    return result


def _keeping_listed_traces(outputs) -> list[CellResult]:
    """The cells of `_run_cell` outputs, in order, each holding its trace
    while it ranks among its variant's first `WORST_RUNS_LISTED` completed
    cells so far by `_rank`, the cells failures.md lists."""
    cells = []
    listed: dict[str, list[CellResult]] = {}
    for record, seconds, trace in outputs:
        cell = CellResult(record.variant, record.seed, record, trace, seconds)
        cells.append(cell)
        if record.status != STATUS_FAILED:
            top = listed.setdefault(cell.variant, [])
            top.append(cell)
            if len(top) > WORST_RUNS_LISTED:
                top.sort(key=lambda c: _rank(c.record))
                top.pop().trace = None
    return cells


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

SUMMARY_COLUMNS = (
    "metric", "mean", "median", "p95", "ci_lo", "ci_hi", "n_seeds",
    "effect_size_vs_baseline",
)


def _numeric_metrics(records: list[RunRecord]) -> list[str]:
    names: set[str] = {"objective", "goal_verdict"}
    for r in records:
        names.update(r.metrics)
        names.update(r.costs)
    return sorted(names)


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def write_report(result: ResultSet, output_dir: str | Path) -> Path:
    """Emit the full report bundle into `output_dir`.

    Files: resolved_config.json, runs.jsonl, summary.csv,
    constraint_report.json, failures.md, traces/ with a window of each
    listed cell's trace around its first failing signal (see
    `_write_failures`), and timing.json (the only file allowed to differ
    between identical runs). When a replayed cell's record differs from the
    stored one, the records were written by other code: InputError names
    the cells after every file is written. Every window file under traces/
    (`traces/*/seed_*_steps_*_*.jsonl`), of whatever variant, is cleared
    first, and a variant directory that clearing empties is removed, so the
    directory holds no window of another run; other files there stay. The
    report encodes windows of the traces the grid kept; results read back by
    `load_result_set` carry none, so under `report --in` each listed cell
    that gets a window is run again. A whole trace stays one deterministic
    replay away: `run_one(config, agent, seed, sweep_value, Trace())`.

    summary.csv gives each variant's metrics over its completed seeds: mean,
    median, p95 and a bootstrap 95% interval of the mean (`ledger.aggregate`,
    one call per row). The bootstrap's index matrix is drawn once per seed
    count, so every metric with that many seeds resamples the same seeds.

    timing.json holds the grid's wall clock plus `report_seconds` for this
    call; `source_sha256`, the result's, which a re-report keeps;
    `runs_sha256`, the sha256 of the runs.jsonl written;
    `trace_write_seconds`, the part of it spent encoding and writing
    trace windows; and `trace_replay_seconds`, the part spent re-running
    listed cells to record their traces, their files included. The replay
    seconds are 0.0 after `hoardbench run`. `cell_seconds` maps variant,
    then seed, to the wall seconds each cell took in the grid, measured
    inside the worker that ran it; a seed's first variant there carries what
    its variants share (D's universe). Results read back from a directory carry the grid's wall
    clock and cell seconds from its timing.json, so a re-report keeps them.
    """
    started = time.monotonic()
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = result.config

    (out / "resolved_config.json").write_text(
        json.dumps(resolved_document(config), indent=2, sort_keys=True) + "\n"
    )

    variants = _variant_table(config)
    position = {label: i for i, label in enumerate(variants)}
    ordered = sorted(result.cells, key=lambda c: (position[c.variant], c.seed))
    by_variant = {}
    for cell in ordered:
        by_variant.setdefault(cell.variant, []).append(cell.record)
    completed = {
        variant: [r for r in records if r.status != STATUS_FAILED]
        for variant, records in by_variant.items()
    }

    windows = list((out / "traces").glob("*/seed_*_steps_*_*.jsonl"))
    for path in windows:
        path.unlink()
    for directory in {path.parent for path in windows}:
        if not any(directory.iterdir()):
            directory.rmdir()

    with open(out / "runs.jsonl", "w") as fh:
        for cell in ordered:
            fh.write(cell.record.to_json_line() + "\n")

    rows = []
    # Seed count -> the bootstrap index matrix, drawn the first time a metric
    # with that many seeds is resampled: the matrix a fresh
    # `Substream(seed_start, "bootstrap")` would draw for each such metric.
    resamples = {}
    for variant, records in completed.items():
        if len(records) < 2:
            continue
        name, _, sweep_value = variants[variant]
        baseline = []
        if name != "baseline":
            baseline = completed.get(_variant_label("baseline", config.sweep_key, sweep_value), [])
        for metric in _numeric_metrics(records):
            values = _values(records, metric)
            n = len(values)
            if n < 2:
                continue
            if n not in resamples and resampled(values):
                resamples[n] = Substream(config.seed_start, "bootstrap").integers(
                    0, n, size=(BOOTSTRAP_RESAMPLES, n)
                )
            *stats, n_seeds, effect = aggregate(
                values, resamples.get(n), _values(baseline, metric)
            )
            rows.append((f"{variant}/{metric}", *map(_fmt, stats), str(n_seeds),
                         "" if effect is None else _fmt(effect)))
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows(rows)

    constraint = {
        variant: constraint_check([r.goal_verdict for r in records], config.ledger["delta"])
        if records else {"error": "no completed runs"}
        for variant, records in completed.items()
    }
    (out / "constraint_report.json").write_text(
        json.dumps(constraint, indent=2, sort_keys=True) + "\n"
    )

    replay_seconds, write_seconds, mismatches = _write_failures(
        result, variants, by_variant, completed, out
    )

    cell_seconds: dict[str, dict[str, float]] = {}
    for cell in ordered:
        if cell.seconds is not None:
            cell_seconds.setdefault(cell.variant, {})[str(cell.seed)] = cell.seconds
    timing = {
        **result.wallclock,
        "source_sha256": result.source_sha256,
        "runs_sha256": _file_sha256(out / "runs.jsonl"),
        "report_seconds": time.monotonic() - started,
        "trace_replay_seconds": replay_seconds,
        "trace_write_seconds": write_seconds,
        "cell_seconds": cell_seconds,
    }
    (out / "timing.json").write_text(json.dumps(timing, indent=2, sort_keys=True) + "\n")
    if mismatches:
        raise InputError(
            f"trace replay differs from runs.jsonl in {len(mismatches)} listed cell(s) of "
            f"{out} ({'; '.join(mismatches)}): the records were written by other code; "
            "see failures.md"
        )
    return out


def source_sha256() -> str:
    """sha256 of the running hoardbench package's source: each `.py` file
    under it, sorted by relative path, as that path, its byte length and its
    bytes."""
    root = Path(__file__).resolve().parent
    digest = _sha256()
    for path in sorted(root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _file_sha256(path: Path) -> str:
    """sha256 of the file at `path`, read a block at a time, so that a
    large runs.jsonl adds no more than a block to a run's peak memory."""
    digest = _sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            digest.update(block)
    return digest.hexdigest()


def _sha256():
    """A new sha256 hash. hashlib is imported here, not with the module: it
    loads OpenSSL (~6 ms), which `validate` never needs, and `run` has
    imported it already, through numpy.random."""
    import hashlib

    return hashlib.sha256()


def _values(records: list[RunRecord], metric: str) -> list[float]:
    """`metric`'s values over `records`, leaving out each record that lacks
    the metric or holds NaN for it."""
    values = []
    for record in records:
        try:
            value = record.value(metric)
        except KeyError:
            continue
        if value == value:
            values.append(value)
    return values


def _rank(record: RunRecord) -> tuple[bool, float, int]:
    """Where a completed run stands among its variant's in failures.md:
    goal verdict 0 first, then highest objective, then lowest seed. Seeds
    are unique within a variant, so no two runs tie."""
    return (record.goal_verdict != 0, -record.objective, record.seed)


def _failed_check(signal: dict) -> bool:
    return not signal["ground_truth_verdict"]


def _wrong_verdict(signal: dict) -> bool:
    return signal["verdict"] != signal["ground_truth_verdict"]


def _first(signals: list[dict], test) -> dict | None:
    return next((s for s in signals if test(s)), None)


def _window_signal(signals: list[dict]) -> dict | None:
    """The signal a cell's trace window is cut around: its first whose
    ground truth failed or whose verdict disagrees with it; None when it has
    none."""
    return _first(signals, lambda s: _failed_check(s) or _wrong_verdict(s))


def _window(signal: dict, length: int) -> tuple[int, int]:
    """The first and last step of `signal`'s window in a trace of `length`
    steps: its segment, clipped to the trace, after `LEAD_IN` steps more.
    Segments can reach past the trace: B counts `query_delay`, C its
    recovery steps and D two steps per repair round, none of them traced."""
    start, end = signal["segment"]
    end = min(end, length - 1)
    return max(0, min(start, end) - LEAD_IN), end


def _window_path(variant: str, seed: int, first: int, last: int) -> Path:
    """A trace window's file, relative to the results directory."""
    return Path("traces") / _safe(variant) / f"seed_{seed}_steps_{first}_{last}.jsonl"


def _describe(signal: dict | None) -> str:
    if signal is None:
        return "none"
    start, end = signal["segment"]
    verdicts = ("fail", "pass")
    return (f"{signal['predicate_id']}, segment {start}..{end}, "
            f"verdict {verdicts[bool(signal['verdict'])]}, "
            f"ground truth {verdicts[bool(signal['ground_truth_verdict'])]}")


def _write_failures(
    result: ResultSet, variants: dict, by_variant: dict, completed: dict, out: Path
) -> tuple[float, float, list[str]]:
    """Write failures.md: per variant, the error of every failed cell, then
    the first `WORST_RUNS_LISTED` completed runs by `_rank`. Each listed run
    gives its goal verdict, its costs, its first signal whose ground truth
    failed and its first whose verdict disagrees with the ground truth, each
    with its predicate and segment.

    A listed run with either signal gets a trace window around the earlier
    one (`_window_signal`, `_window`), and failures.md gives the steps the
    file holds; a run with neither gets no file. The window is cut from the
    trace the grid kept. Results read back by `load_result_set` carry no
    traces, so for them each window is recorded by re-running its cell
    (determinism makes the replay exact, and a replay whose record differs
    from the stored one gets no window: failures.md names the first field
    that differs); `variants` is `_variant_table` of the config, and
    `completed` holds the completed records of each variant of
    `by_variant`. Returns the seconds spent on re-runs, their window files
    included, the seconds spent encoding and writing window files, and a
    line per replay that differs, naming its cell and field."""
    config = result.config
    lines = [
        "# Representative failures",
        "",
        f"Per variant: each failed cell, then up to {WORST_RUNS_LISTED} completed cells, "
        "goal verdict 0 first, then highest objective. A listed cell's trace file holds the "
        f"steps from {LEAD_IN} before the segment of its first failed check or wrong verdict "
        "to the segment's end, within the trace.",
        "",
    ]
    recorded = {(c.variant, c.seed): c.trace for c in result.cells if c.trace is not None}
    replay_seconds = write_seconds = 0.0
    mismatches: list[str] = []
    for variant, records in by_variant.items():
        listed = sorted(completed[variant], key=_rank)[:WORST_RUNS_LISTED]
        failed = [r for r in records if r.status == STATUS_FAILED]
        lines.append(f"## {variant}")
        if failed:
            lines.append(
                f"({len(failed)} failed cells; "
                "aggregate is low-confidence)"
            )
            # Not "- seed ...": that prefix marks a listed run.
            lines.extend(f"- failed seed {r.seed}: {' '.join(r.error.split())}" for r in failed)
        if not listed:
            lines.append("(no completed runs)")
            lines.append("")
            continue
        _, agent, sweep_value = variants[variant]
        for record in listed:
            signal = _window_signal(record.signals)
            where = "none"
            if signal is not None:
                where, replayed, written, differs = _write_window(
                    config, agent, sweep_value, record, signal,
                    recorded.get((variant, record.seed)), out,
                )
                replay_seconds += replayed
                write_seconds += written
                if differs is not None:
                    mismatches.append(f"{variant} seed {record.seed}: {differs}")
            lines.append(
                f"- seed {record.seed}: objective {record.objective:.6g}, "
                f"status {record.status}, goal_verdict {record.goal_verdict}, trace: {where}"
            )
            costs = ", ".join(f"{k} {v:.6g}" for k, v in sorted(record.costs.items()))
            lines.append(f"  - costs: {costs or 'none'}")
            lines.append(f"  - first failed check: {_describe(_first(record.signals, _failed_check))}")
            lines.append(f"  - first wrong verdict: {_describe(_first(record.signals, _wrong_verdict))}")
        lines.append("")
    (out / "failures.md").write_text("\n".join(lines) + "\n")
    return replay_seconds, write_seconds, mismatches


def _write_window(
    config: ExperimentConfig, agent: dict, sweep_value, record: RunRecord, signal: dict,
    trace: Trace | None, out: Path,
) -> tuple[str, float, float, str | None]:
    """Write one listed cell's window around `signal`, replaying the cell
    when there is no `trace`. A replay must give `record` again, the same
    runs.jsonl line; where it does not, no window is written. Returns what
    failures.md says of it, the replay seconds, the write seconds and, for
    a replay that differs, the first field where it does, else None."""
    variant, seed = record.variant, record.seed
    replay = trace is None
    started = time.monotonic()
    write_started = None
    differs = None
    try:
        if replay:
            trace = Trace()
            rerun = run_one(config, agent, seed, sweep_value, trace)
            rerun.variant = variant
            stored_line, rerun_line = record.to_json_line(), rerun.to_json_line()
            if rerun_line != stored_line:
                differs = _first_difference(json.loads(stored_line), json.loads(rerun_line))
        if differs is None:
            first, last = _window(signal, len(trace))
            write_started = time.monotonic()
            path = _window_path(variant, seed, first, last)
            (out / path).parent.mkdir(parents=True, exist_ok=True)
            trace.write_jsonl(out / path, first, last + 1)
            where = f"{path} (steps {first}..{last})"
        else:
            where = f"(trace replay differs from runs.jsonl: first differing field {differs})"
    except Exception as exc:  # a trace must never sink the report
        where = f"(trace {'replay failed' if replay else 'not written'}: {exc})"
    finished = time.monotonic()
    replayed = finished - started if replay else 0.0
    written = finished - write_started if write_started is not None else 0.0
    return where, replayed, written, differs


def _first_difference(stored, rerun, path: str = "") -> str:
    """The path (`metrics.leakage`, `signals[3].verdict`) of the first place
    where two differing JSON values differ: object keys in the stored
    order, then keys only the rerun has; list items by index. Values are
    compared as JSON text, in which NaN equals NaN."""
    if isinstance(stored, dict) and isinstance(rerun, dict):
        for key in [*stored, *(k for k in rerun if k not in stored)]:
            inner = f"{path}.{key}" if path else key
            if key not in stored or key not in rerun:
                return inner
            if json.dumps(stored[key]) != json.dumps(rerun[key]):
                return _first_difference(stored[key], rerun[key], inner)
    elif isinstance(stored, list) and isinstance(rerun, list):
        for i, (a, b) in enumerate(zip(stored, rerun)):
            if json.dumps(a) != json.dumps(b):
                return _first_difference(a, b, f"{path}[{i}]")
        return f"{path}[{min(len(stored), len(rerun))}]"
    return path


def _safe(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)


def load_result_set(directory: str | Path) -> ResultSet:
    """Rebuild a ResultSet from a results directory (for re-reporting).
    InputError, naming the file and line, when resolved_config.json is not
    UTF-8 or a line of runs.jsonl is not a run record, in UTF-8 JSON, of a
    variant the config has and a seed in its range, or repeats a record's
    (variant, seed)."""
    directory = Path(directory)
    path = directory / "resolved_config.json"
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc
    result = ResultSet(config=parse_config(text))
    variants = _variant_table(result.config)
    seeds = result.config.seeds()
    seen: set[tuple[str, int]] = set()
    result.wallclock, cell_seconds, result.source_sha256 = _read_timing(directory)
    path = directory / "runs.jsonl"
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = RunRecord.from_json_obj(json.loads(line.decode("utf-8")))
            except (ValueError, KeyError, TypeError) as exc:
                raise InputError(f"{path} line {number}: not a run record: {exc!r}") from exc
            if record.variant not in variants:
                raise InputError(f"{path} line {number}: variant {record.variant!r} is not "
                                 f"one of the config's {sorted(variants)}")
            if record.seed not in seeds:
                raise InputError(f"{path} line {number}: seed {record.seed!r} is outside the "
                                 f"config's seeds {seeds.start}..{seeds.stop - 1}")
            cell = (record.variant, record.seed)
            if cell in seen:
                raise InputError(f"{path} line {number}: repeats the record of variant "
                                 f"{record.variant!r}, seed {record.seed}")
            seen.add(cell)
            seconds = cell_seconds.get(cell)
            result.cells.append(CellResult(record.variant, record.seed, record, seconds=seconds))
    return result


def _read_timing(
    directory: Path,
) -> tuple[dict[str, float], dict[tuple[str, int], float], str | None]:
    """The grid's wall clock (`total_seconds`, `jobs`), per-cell seconds,
    by (variant, seed), and `source_sha256` from a results directory's
    timing.json; empty, empty and None when the file is missing or
    unreadable. A digest that is not a string reads as None."""
    try:
        timing = json.loads((directory / "timing.json").read_text())
        wallclock = {k: float(timing[k]) for k in ("total_seconds", "jobs") if k in timing}
        cells = {
            (variant, int(seed)): float(seconds)
            for variant, by_seed in timing.get("cell_seconds", {}).items()
            for seed, seconds in by_seed.items()
        }
        source = timing.get("source_sha256")
    except (OSError, ValueError, TypeError, AttributeError):
        return {}, {}, None
    return wallclock, cells, source if isinstance(source, str) else None
