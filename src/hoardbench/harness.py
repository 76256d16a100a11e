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
from .ledger import CostLedger, aggregate, constraint_check
from .rng import Substream

WORST_RUNS_LISTED = 3

LEDGER_DEFAULTS: dict[str, float] = {
    "lambda_latency": 0.01,
    "lambda_leak": 1.0,
    "lambda_repair": 0.1,
    "budget": 1e9,
    "delta": 0.1,
}

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
    out = dict(LEDGER_DEFAULTS)
    for key, value in block.items():
        if key not in LEDGER_DEFAULTS:
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
    cells failures.md lists (see `run_grid`), else None. `seconds` is the
    wall time the cell took in the grid, None when it is not known."""

    variant: str
    seed: int
    record: RunRecord
    trace: Trace | None = None
    seconds: float | None = None


@dataclass
class ResultSet:
    """A grid's cells. `loaded_from` is the results directory the set was
    read back from by `load_result_set`, else None."""

    config: ExperimentConfig
    cells: list[CellResult] = field(default_factory=list)
    wallclock: dict[str, float] = field(default_factory=dict)
    loaded_from: Path | None = None

    def by_variant(self) -> dict[str, list[RunRecord]]:
        out: dict[str, list[RunRecord]] = {}
        for cell in self.cells:
            out.setdefault(cell.variant, []).append(cell.record)
        return out

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
    its steps, which `report --in` does when a listed trace file is missing.
    Both fill the Trace the same way; they stay apart because a call with
    `trace` is a replay, and perfbench's span tracer (`perfbench/tracing.py`)
    counts it as one rather than as a grid cell.
    """
    env = config.env
    if config.sweep_key is not None:
        env = dataclasses.replace(
            env, **{config.sweep_key: _env_value(type(env), config.sweep_key, sweep_value)}
        )
    if trace is None:
        trace = record_into
    return FAMILIES[config.family].run(env, agent, CostLedger(**config.ledger), seed, trace)


def _run_cell(
    payload: tuple[ExperimentConfig, str, dict, object, int],
) -> tuple[RunRecord, float, Trace | None]:
    """Worker entry point: runs one cell, recording its steps. Returns the
    finished record, the cell's wall seconds and its trace, None for a
    failed cell: a partial trace is never kept."""
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
    return record, time.monotonic() - started, trace


def run_grid(config: ExperimentConfig, jobs: int = 1) -> ResultSet:
    """Run baseline and ablation variants over the full seed range.

    Cells are independent. They run seed-major (seed, sweep value, variant),
    so a seed's cells, which draw the same env stream, run back to back and
    can share what they build from it (D's universe); results are ordered by
    (variant, sweep value, seed), so worker count never changes the bytes.

    Every cell records its step trace as it runs, in this process or in a
    pool worker that ships it back compactly, so `write_report` re-runs
    nothing. Per variant, the grid keeps the traces of the cells failures.md
    will list, its `WORST_RUNS_LISTED` worst completed cells so far by
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
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = _keeping_listed_traces(pool.map(_run_cell, payloads, chunksize=4))
    elapsed = time.monotonic() - started

    # cells[v + j * nv::ns * nv] are variant v's at sweep value j, by seed.
    ns, nv = len(sweep_values), len(variants)
    cells = [c for v in range(nv) for j in range(ns) for c in cells[v + j * nv :: ns * nv]]
    result = ResultSet(config=config, cells=cells)
    result.wallclock = {"total_seconds": elapsed, "jobs": float(jobs)}
    return result


def _keeping_listed_traces(outputs) -> list[CellResult]:
    """The cells of `_run_cell` outputs, in order, each holding its trace
    while it ranks among its variant's `WORST_RUNS_LISTED` worst completed
    cells so far."""
    cells = []
    listed: dict[str, list[CellResult]] = {}
    for record, seconds, trace in outputs:
        cell = CellResult(record.variant, record.seed, record, trace, seconds)
        cells.append(cell)
        if trace is not None:
            worst = listed.setdefault(cell.variant, [])
            worst.append(cell)
            if len(worst) > WORST_RUNS_LISTED:
                worst.sort(key=lambda c: _rank(c.record))
                worst.pop().trace = None
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
    constraint_report.json, failures.md, traces/ for the listed failures,
    and timing.json (the only file allowed to differ between identical
    runs). The report encodes the traces the grid kept for the listed cells
    and runs no cell again, except under `report --in` for a listed trace
    whose file is missing.

    timing.json holds the grid's wall clock plus `report_seconds` for this
    call; `trace_write_seconds`, the part of it spent encoding and writing
    listed traces; and `trace_replay_seconds`, the part spent re-running
    listed cells to record their traces, their files included. The replay
    seconds are 0.0 after `hoardbench run`, and both are 0.0 for a
    re-report of the directory the results were loaded from that finds every
    listed trace file there. `cell_seconds` maps variant, then seed, to the
    wall seconds each cell took in the grid, measured inside the worker
    that ran it; a seed's first variant there carries what its variants share
    (D's universe). Results read back from a directory carry the grid's wall
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

    # Only a re-report of the directory the results came from may reuse the
    # trace files there. Otherwise the listed paths are cleared before
    # runs.jsonl is written, so that a report cut short cannot leave an
    # older run's traces where a later `report --in` would take them.
    reuse = result.loaded_from is not None and result.loaded_from.resolve() == out.resolve()
    if not reuse:
        for variant, records in by_variant.items():
            for record in _worst_completed(records):
                (out / _trace_path(variant, record.seed)).unlink(missing_ok=True)

    with open(out / "runs.jsonl", "w") as fh:
        for cell in ordered:
            fh.write(cell.record.to_json_line() + "\n")

    rows = []
    for variant, records in by_variant.items():
        completed = [r for r in records if r.status != STATUS_FAILED]
        if len(completed) < 2:
            continue
        name, _, sweep_value = variants[variant]
        baseline = None
        if name != "baseline":
            baseline = by_variant.get(_variant_label("baseline", config.sweep_key, sweep_value))
        for metric in _numeric_metrics(completed):
            values = [_metric_or_nan(r, metric) for r in completed]
            values = [v for v in values if v == v]
            if len(values) < 2:
                continue
            base_values = None
            if baseline is not None:
                base_values = [
                    _metric_or_nan(r, metric)
                    for r in baseline
                    if r.status != STATUS_FAILED
                ]
                base_values = [v for v in base_values if v == v] or None
            stream = Substream(config.seed_start, "bootstrap")
            summary = aggregate(values, metric, stream, base_values)
            effect = summary.effect_size_vs_baseline
            rows.append(
                (
                    f"{variant}/{metric}",
                    _fmt(summary.mean),
                    _fmt(summary.median),
                    _fmt(summary.p95),
                    _fmt(summary.ci_low),
                    _fmt(summary.ci_high),
                    str(summary.n_seeds),
                    "" if effect is None else _fmt(effect),
                )
            )
    with open(out / "summary.csv", "w") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")

    constraint = {}
    for variant, records in by_variant.items():
        completed = [r for r in records if r.status != STATUS_FAILED]
        if not completed:
            constraint[variant] = {"error": "no completed runs"}
            continue
        report = constraint_check(
            [r.goal_verdict for r in completed], config.ledger["delta"]
        )
        constraint[variant] = report.to_json_obj()
    (out / "constraint_report.json").write_text(
        json.dumps(constraint, indent=2, sort_keys=True) + "\n"
    )

    replay_seconds, write_seconds = _write_failures(result, variants, by_variant, out, reuse)

    cell_seconds: dict[str, dict[str, float]] = {}
    for cell in ordered:
        if cell.seconds is not None:
            cell_seconds.setdefault(cell.variant, {})[str(cell.seed)] = cell.seconds
    timing = {
        **result.wallclock,
        "report_seconds": time.monotonic() - started,
        "trace_replay_seconds": replay_seconds,
        "trace_write_seconds": write_seconds,
        "cell_seconds": cell_seconds,
    }
    (out / "timing.json").write_text(json.dumps(timing, indent=2, sort_keys=True) + "\n")
    return out


def _metric_or_nan(record: RunRecord, metric: str) -> float:
    try:
        return record.value(metric)
    except KeyError:
        return float("nan")


def _rank(record: RunRecord) -> tuple[float, int]:
    """Where a completed run stands among its variant's in failures.md:
    highest objective first, then lowest seed. Seeds are unique within a
    variant, so no two runs tie."""
    return (-record.objective, record.seed)


def _worst_completed(records: list[RunRecord]) -> list[RunRecord]:
    """The completed runs failures.md lists for one variant."""
    completed = [r for r in records if r.status != STATUS_FAILED]
    return sorted(completed, key=_rank)[:WORST_RUNS_LISTED]


def _trace_path(variant: str, seed: int) -> Path:
    """A listed run's trace file, relative to the results directory."""
    return Path("traces") / _safe(variant) / f"seed_{seed}.jsonl"


def _write_failures(
    result: ResultSet, variants: dict, by_variant: dict, out: Path, reuse: bool
) -> tuple[float, float]:
    """List the worst completed runs per variant, by `_rank`, each with a
    trace file, and the error of every failed cell. A listed cell's trace is
    the one the grid kept or, with `reuse`, the file already there. Results
    read back by `load_result_set` carry no traces, so for them a missing
    file is recorded by re-running the cell (determinism makes the replay
    exact); `variants` is `_variant_table` of the config. Returns the
    seconds spent on re-runs, their trace files included, and the seconds
    spent encoding and writing trace files."""
    config = result.config
    lines = ["# Representative failures", ""]
    recorded = {(c.variant, c.seed): c.trace for c in result.cells if c.trace is not None}
    replay_seconds = write_seconds = 0.0
    for variant, records in by_variant.items():
        worst = _worst_completed(records)
        failed = [r for r in records if r.status == STATUS_FAILED]
        lines.append(f"## {variant}")
        if failed:
            lines.append(
                f"({len(failed)} failed cells; "
                "aggregate is low-confidence)"
            )
            # Not "- seed ...": that prefix marks a listed run with a trace.
            lines.extend(f"- failed seed {r.seed}: {' '.join(r.error.split())}" for r in failed)
        if not worst:
            lines.append("(no completed runs)")
            lines.append("")
            continue
        _, agent, sweep_value = variants[variant]
        for record in worst:
            rel = _trace_path(variant, record.seed)
            path = out / rel
            trace = recorded.get((variant, record.seed))
            replay = trace is None and not (reuse and path.is_file())
            replay_started = time.monotonic()
            write_started = None
            try:
                if replay:
                    trace = Trace()
                    run_one(config, agent, record.seed, sweep_value, trace)
                if trace is not None:
                    write_started = time.monotonic()
                    path.parent.mkdir(parents=True, exist_ok=True)
                    trace.write_jsonl(path)
                where = str(rel)
            except Exception as exc:  # a trace must never sink the report
                where = f"(trace {'replay failed' if replay else 'not written'}: {exc})"
            finished = time.monotonic()
            if replay:
                replay_seconds += finished - replay_started
            if write_started is not None:
                write_seconds += finished - write_started
            lines.append(
                f"- seed {record.seed}: objective {record.objective:.6g}, "
                f"status {record.status}, trace: {where}"
            )
        lines.append("")
    (out / "failures.md").write_text("\n".join(lines) + "\n")
    return replay_seconds, write_seconds


def _safe(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)


def load_result_set(directory: str | Path) -> ResultSet:
    """Rebuild a ResultSet from a results directory (for re-reporting).
    InputError, naming the file and line, when resolved_config.json is not
    UTF-8 or a line of runs.jsonl is not a run record, in UTF-8 JSON, of a
    variant the config has."""
    directory = Path(directory)
    path = directory / "resolved_config.json"
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc
    result = ResultSet(config=parse_config(text), loaded_from=directory)
    variants = _variant_table(result.config)
    result.wallclock, cell_seconds = _read_timing(directory)
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
            seconds = cell_seconds.get((record.variant, record.seed))
            result.cells.append(CellResult(record.variant, record.seed, record, seconds=seconds))
    return result


def _read_timing(directory: Path) -> tuple[dict[str, float], dict[tuple[str, int], float]]:
    """The grid's wall clock (`total_seconds`, `jobs`) and per-cell seconds,
    by (variant, seed), from a results directory's timing.json; both empty
    when the file is missing or unreadable."""
    try:
        timing = json.loads((directory / "timing.json").read_text())
        wallclock = {k: float(timing[k]) for k in ("total_seconds", "jobs") if k in timing}
        cells = {
            (variant, int(seed)): float(seconds)
            for variant, by_seed in timing.get("cell_seconds", {}).items()
            for seed, seconds in by_seed.items()
        }
    except (OSError, ValueError, TypeError, AttributeError):
        return {}, {}
    return wallclock, cells
