import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hoardbench
from hoardbench import __version__, harness
from hoardbench.cli import main
from hoardbench.core.state import ConfigurationError, Trace
from hoardbench.envs import FAMILIES, STATUS_COMPLETED, family_d
from hoardbench.harness import (
    WORST_RUNS_LISTED,
    parse_config,
    resolved_document,
    run_grid,
    run_one,
    variant_agents,
    write_report,
)


@pytest.mark.parametrize(
    "key, document",
    [
        ("seeds", {"seeds": True}),
        ("seeds", {"seeds": False}),
        ("seeds", {"seeds": -1}),
        ("seeds", {"seeds": "-2..3"}),
        ("seeds", {"seeds": 2.0}),
        ("agent.kp", {"agent": {"kp": True}}),
        ("agent.kd", {"agent": {"kd": math.nan}}),
        ("agent.action_bound", {"agent": {"action_bound": math.inf}}),
        ("kp", {"agent": {"kp": -1.0}}),
        ("forgetting", {"agent": {"forgetting": 0.5}}),
        ("agent.checker_fp", {"family": "D", "agent": {"checker_fp": 1.0}}),
        ("agent.checker_fp", {"family": "D", "agent": {"checker_fp": 0.5, "checker_fn": 0.5}}),
        ("agent.checker_fn", {"family": "D", "agent": {"checker_fn": -0.1}}),
        ("ledger.budget", {"ledger": {"budget": math.nan}}),
        ("ledger.budget", {"ledger": {"budget": math.inf}}),
        ("ledger.budget", {"ledger": {"budget": True}}),
        ("budget", {"ledger": {"budget": 0}}),
        ("delta", {"ledger": {"delta": 1.0}}),
        ("version", {"version": "0.0.1"}),
        ("version", {"version": 1}),
        ("ablations.single_agent", {"family": "D", "ablations": ["single_agent", "single_agent"]}),
        ("ablations.no_feedback", {"ablations": ["no_feedback", "no_compensator", "no_feedback"]}),
        ("sweep.values", {"family": "D", "sweep": {"key": "plan_length", "values": [8, 8]}}),
        ("sweep.values", {"sweep": {"key": "trials", "values": [1, 2, 1]}}),
        ("agent.verifier_placement", {"agent": {"verifier_placement": "in_loop"}}),
        ("env.verifier_delay", {"env": {"verifier_delay": 2}}),
        ("agent.verifier_placement", {"family": "B", "agent": {"verifier_placement": "in_loop"}}),
        ("env.verifier_delay", {"family": "B", "env": {"verifier_delay": 1}}),
        ("knowledge_fraction", {"family": "D", "env": {"knowledge_fraction": True}}),
        ("knowledge_fraction", {"family": "D", "env": {"knowledge_fraction": 0.0}}),
        ("coverage", {"family": "D", "env": {"coverage": True}}),
        ("coverage", {"family": "D", "env": {"coverage": "x"}}),
    ],
)
def test_top_level_keys_rejected_by_name(key, document):
    with pytest.raises(ConfigurationError, match=key):
        parse_config(json.dumps({"family": "A", **document}))


@pytest.mark.parametrize(
    "key, document",
    [
        ("agent", {"agent": []}),
        ("env", {"env": [1]}),
        ("ledger", {"ledger": "x"}),
        ("family", {"family": ["A"]}),
        ("ablations", {"ablations": [{}]}),
        ("sweep.key", {"sweep": {"key": ["x"], "values": [1]}}),
    ],
)
def test_wrong_typed_blocks_rejected_by_name(key, document):
    with pytest.raises(ConfigurationError, match=key):
        parse_config(json.dumps({"family": "A", **document}))


@pytest.mark.parametrize(
    "key, block",
    [("gap_scale", "env"), ("kp", "agent"), ("budget", "ledger")],
)
def test_int_too_large_for_a_float_rejected_by_name(key, block):
    document = '{"family": "A", "%s": {"%s": %s}}' % (block, key, "9" * 400)
    with pytest.raises(ConfigurationError, match=key):
        parse_config(document)


def test_package_runs_as_a_module(tmp_path):
    # `python -m hoardbench` is the `hoardbench` command.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"family": "A", "seeds": "0..1"}))
    src = str(Path(hoardbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-m", "hoardbench", "validate", "--config", str(config)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["family"] == "A"


def test_version_echo_round_trips():
    config = parse_config(json.dumps({"family": "A", "seeds": 3, "version": __version__}))
    assert resolved_document(config)["version"] == __version__
    assert parse_config(json.dumps(resolved_document(config))) == config


@pytest.mark.parametrize(
    "family, env, key, values",
    [
        ("A", {"trials": 1, "horizon": 20}, "z_range", [[0.2, 0.4], [0.5, 0.8]]),
        ("C", {"caches": 5}, "forbidden_zone", [[0, 0, 2, 2], [5, 5, 9, 9]]),
    ],
)
def test_sweep_over_tuple_field_runs(family, env, key, values):
    # JSON writes tuple fields as lists; each cell must get the tuple back.
    config = parse_config(json.dumps({
        "family": family, "seeds": "0..1", "env": env,
        "sweep": {"key": key, "values": values},
    }))
    result = run_grid(config)
    assert [c.record.error for c in result.cells] == [""] * 4
    assert [c.variant for c in result.cells] == [
        f"baseline@{key}={v}" for v in values for _ in range(2)
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_cells_run_seed_major_and_come_back_variant_major(jobs, monkeypatch):
    ran = []

    def recording(config, agent, seed, sweep_value=None, trace=None, **kwargs):
        ran.append((sweep_value, seed, agent["feedback"], agent["compensator"]))
        return run_one(config, agent, seed, sweep_value, trace, **kwargs)

    monkeypatch.setattr(harness, "run_one", recording)
    config = parse_config(json.dumps({
        "family": "A", "seeds": "0..2", "env": {"trials": 1, "horizon": 20},
        "ablations": ["no_feedback", "no_compensator"],
        "sweep": {"key": "horizon", "values": [20, 25]},
    }))
    result = run_grid(config, jobs=jobs)
    assert [(c.variant, c.seed) for c in result.cells] == [
        (f"{variant}@horizon={horizon}", seed)
        for variant in ("baseline", "no_feedback", "no_compensator")
        for horizon in (20, 25)
        for seed in range(3)
    ]
    assert all(c.record.status == STATUS_COMPLETED for c in result.cells)
    if jobs == 1:  # pool workers record into their own copy of `ran`
        assert ran == [
            (horizon, seed, *switches)
            for seed in range(3)
            for horizon in (20, 25)
            for switches in ((True, True), (False, True), (True, False))
        ]


def test_null_sweep_value_unsets_the_env_key():
    # A null sweep value replaces the env block's value like any other.
    swept = run_grid(parse_config(json.dumps({
        "family": "D", "seeds": "0..2", "env": {"coverage": 0.1},
        "sweep": {"key": "coverage", "values": [None, 0.1]},
    })))
    unset = run_grid(parse_config(json.dumps({"family": "D", "seeds": "0..2"})))
    nulls = [c.record for c in swept.cells if c.variant == "baseline@coverage=None"]
    assert len(nulls) == 3
    for null, plain in zip(nulls, (c.record for c in unset.cells)):
        null.variant = plain.variant
        assert null.to_json_line() == plain.to_json_line()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_ablation_flips_one_of_its_family_keys(family):
    entry = FAMILIES[family]
    config = parse_config(json.dumps({"family": family, "ablations": sorted(entry.ablations)}))
    agents = dict(variant_agents(config))
    assert agents["baseline"] == entry.agent
    for name, (key, value) in entry.ablations.items():
        assert key in entry.agent and value != entry.agent[key]
        assert agents[name] == {**entry.agent, key: value}
        entry.check_agent(agents[name])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_foreign_agent_keys_rejected_by_name(family):
    own = FAMILIES[family].agent
    foreign = {
        key: value
        for entry in FAMILIES.values()
        for key, value in entry.agent.items()
        if key not in own
    }
    assert foreign
    for key, value in foreign.items():
        with pytest.raises(ConfigurationError, match=f"agent.{key}"):
            parse_config(json.dumps({"family": family, "agent": {key: value}}))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_other_family_ablations_rejected_by_name(family):
    foreign = [
        name for other, entry in FAMILIES.items() if other != family for name in entry.ablations
    ]
    assert foreign
    for name in foreign:
        with pytest.raises(ConfigurationError, match=f"ablations.{name}"):
            parse_config(json.dumps({"family": family, "ablations": [name]}))


def test_run_one_calls_each_family_runner_through_its_module(monkeypatch):
    # perfbench/tracing.py times each family by replacing the module
    # attribute `run_family_x`, so the registry must look the runner up
    # there at call time, not hold the function object.
    calls = []
    for family in "abcd":
        module = importlib.import_module(f"hoardbench.envs.family_{family}")
        original = getattr(module, f"run_family_{family}")

        def counting(*args, _original=original, _family=family, **kwargs):
            calls.append(_family)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, f"run_family_{family}", counting)
    tiny_envs = {
        "A": {"horizon": 10},
        "B": {"n_events": 8},
        "C": {"caches": 2},
        "D": {"n_constraints": 5},
    }
    for family, env in tiny_envs.items():
        config = parse_config(json.dumps({"family": family, "env": env}))
        assert run_one(config, config.agent, 0).status == STATUS_COMPLETED
    assert calls == ["a", "b", "c", "d"]


D_TWO_SEEDS = {"family": "D", "seeds": "0..1", "env": {"n_constraints": 8},
               "ablations": ["single_agent"]}


def test_grid_keeps_the_listed_cells_traces(outputs_by_jobs):
    # Two seeds list all four cells, so the grid keeps all four traces and
    # the report writes each without re-running a cell.
    config = parse_config(json.dumps(D_TWO_SEEDS))
    assert all(c.trace is not None for c in run_grid(config).cells)
    outputs = outputs_by_jobs(D_TWO_SEEDS)
    files, _ = outputs[1]
    assert sum(name.startswith("traces/") for name in files) == 4
    assert outputs[1] == outputs[2]


def _listed_seeds(failures_md: str) -> dict[str, list[int]]:
    """Variant label -> the seeds failures.md lists with a trace."""
    listed: dict[str, list[int]] = {}
    for line in failures_md.splitlines():
        if line.startswith("## "):
            label = listed.setdefault(line[3:], [])
        elif line.startswith("- seed "):
            label.append(int(line.split()[2].rstrip(":")))
    return listed


def test_grid_keeps_exactly_the_traces_failures_md_lists(tmp_path, monkeypatch):
    # More seeds than are listed, tied objectives that seeds must order, a
    # failing cell and a sweep: the grid's bounded keep
    # and failures.md rank with the one rule.
    original = family_d.run_family_d

    def tied(env, mode, ledger, seed, *rest):
        if seed == 4 and env.plan_length == 8:
            raise RuntimeError("checker crashed")
        record = original(env, mode, ledger, seed, *rest)
        record.objective = float(seed // 2 % 3)
        return record

    monkeypatch.setattr(family_d, "run_family_d", tied)
    document = {**D_TWO_SEEDS, "seeds": "0..8",
                "sweep": {"key": "plan_length", "values": [8, 9]}}
    result = run_grid(parse_config(json.dumps(document)))
    write_report(result, tmp_path)
    kept: dict[str, list[int]] = {}
    for cell in result.cells:
        if cell.trace is not None:
            assert cell.record.status != "failed"
            kept.setdefault(cell.variant, []).append(cell.seed)
    failures_md = (tmp_path / "failures.md").read_text()
    listed = _listed_seeds(failures_md)
    assert {label: sorted(seeds) for label, seeds in listed.items()} == kept
    assert all(len(seeds) == WORST_RUNS_LISTED for seeds in kept.values())
    # Objective 2 (seeds 4, 5) ranks first, then objective 1 (seeds 2, 3
    # and 8) by seed. At plan length 8, seed 4 failed and seed 3 moves up.
    assert listed["baseline@plan_length=8"] == [5, 2, 3]
    assert listed["baseline@plan_length=9"] == [4, 5, 2]
    assert "- failed seed 4: RuntimeError: checker crashed" in failures_md
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert timing["trace_replay_seconds"] == 0.0


def test_report_replays_only_missing_traces(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(D_TWO_SEEDS))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    before = _result_files(out)
    grid_timing = json.loads((out / "timing.json").read_text())
    assert set(grid_timing["cell_seconds"]) == {"baseline", "single_agent"}
    assert grid_timing["trace_replay_seconds"] == 0.0
    assert 0.0 < grid_timing["trace_write_seconds"] <= grid_timing["report_seconds"]
    calls = _count_run_one(monkeypatch)
    assert main(["report", "--in", str(out)]) == 0
    assert calls == []
    timing = json.loads((out / "timing.json").read_text())
    assert timing["trace_replay_seconds"] == 0.0
    assert timing["trace_write_seconds"] == 0.0
    # The grid's wall clock and cell seconds survive the re-report.
    for key in ("total_seconds", "jobs", "cell_seconds"):
        assert timing[key] == grid_timing[key]
    assert _result_files(out) == before

    (out / "traces" / "single_agent" / "seed_1.jsonl").unlink()
    assert main(["report", "--in", str(out)]) == 0
    assert calls == [1]
    timing = json.loads((out / "timing.json").read_text())
    assert timing["trace_replay_seconds"] > 0.0
    assert 0.0 < timing["trace_write_seconds"] <= timing["report_seconds"]
    assert _result_files(out) == before


def test_report_replays_a_missing_trace_of_a_swept_ablation(tmp_path, monkeypatch):
    # The replay must find the cell's agent and its sweep value, a tuple
    # field written as a JSON list, from the variant label alone.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "family": "A", "seeds": "0..1", "env": {"trials": 1, "horizon": 20},
        "ablations": ["no_feedback"],
        "sweep": {"key": "z_range", "values": [[0.2, 0.4], [0.5, 0.8]]},
    }))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    before = _result_files(out)
    section = (out / "failures.md").read_text().split("## no_feedback@z_range=[0.5, 0.8]\n")[1]
    listed = section.split("\n- seed 1: ")[1].split("\n")[0]
    (out / listed.split("trace: ")[1]).unlink()
    calls = []

    def recording(config, agent, seed, sweep_value=None, trace=None, **kwargs):
        calls.append((agent["feedback"], sweep_value, seed))
        return run_one(config, agent, seed, sweep_value, trace, **kwargs)

    monkeypatch.setattr(harness, "run_one", recording)
    assert main(["report", "--in", str(out)]) == 0
    assert calls == [(False, [0.5, 0.8], 1)]
    assert _result_files(out) == before


@pytest.mark.parametrize("timing", [None, "not json", '{"cell_seconds": [1]}'])
def test_report_without_a_readable_timing_file_keeps_only_its_own(tmp_path, timing):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(D_TWO_SEEDS))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    if timing is None:
        (out / "timing.json").unlink()
    else:
        (out / "timing.json").write_text(timing)
    assert main(["report", "--in", str(out)]) == 0
    rewritten = json.loads((out / "timing.json").read_text())
    assert set(rewritten) == {
        "report_seconds", "trace_replay_seconds", "trace_write_seconds", "cell_seconds",
    }
    assert rewritten["cell_seconds"] == {}


def test_report_after_a_trace_write_cut_short_replays_it(tmp_path, monkeypatch):
    # A trace write that stops partway leaves nothing at the trace's path,
    # so `report --in` replays that cell instead of keeping a truncated file.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(D_TWO_SEEDS))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    before = _result_files(out)
    trace_file = out / "traces" / "single_agent" / "seed_1.jsonl"
    trace_file.unlink()

    def cut_short(self):
        yield next(iter(self.records)).to_json_line() + "\n"
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(Trace, "jsonl_lines", cut_short)
        with pytest.raises(KeyboardInterrupt):
            main(["report", "--in", str(out)])
    assert not trace_file.exists()
    assert not any(p.name.endswith(".partial") for p in out.rglob("*"))

    calls = _count_run_one(monkeypatch)
    assert main(["report", "--in", str(out)]) == 0
    assert calls == [1]
    assert _result_files(out) == before


def test_report_ignores_traces_of_an_older_run_in_the_same_directory(tmp_path, monkeypatch):
    # An older run with other results left traces at the same paths. A new
    # run whose report stops after runs.jsonl must not let `report --in`
    # take those traces for its own.
    reference = tmp_path / "reference"
    write_report(run_grid(parse_config(json.dumps(D_TWO_SEEDS))), reference)
    out = tmp_path / "out"
    older = {**D_TWO_SEEDS, "env": {"n_constraints": 9}}
    write_report(run_grid(parse_config(json.dumps(older))), out)
    stale = _result_files(out)
    traces = [name for name in _result_files(reference) if name.startswith("traces/")]
    assert len(traces) == 4
    assert all(stale[name] != _result_files(reference)[name] for name in traces)

    def interrupted(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(harness, "_write_failures", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_report(run_grid(parse_config(json.dumps(D_TWO_SEEDS))), out)
    calls = _count_run_one(monkeypatch)
    assert main(["report", "--in", str(out)]) == 0
    assert sorted(calls) == [0, 0, 1, 1]
    assert _result_files(out) == _result_files(reference)


def test_grid_cells_that_record_are_not_passed_as_replays(tmp_path, monkeypatch):
    # Every grid cell records its steps and passes `record_into`; only a
    # re-run in the report would carry `trace`, and `hoardbench run`'s
    # report re-runs nothing.
    calls = []

    def spying(*args, **kwargs):
        calls.append((len(args) > 4 or "trace" in kwargs, kwargs.get("record_into") is not None))
        return run_one(*args, **kwargs)

    monkeypatch.setattr(harness, "run_one", spying)
    result = run_grid(parse_config(json.dumps({**D_TWO_SEEDS, "seeds": "0..4"})))
    assert calls == [(False, True)] * 10
    calls.clear()
    write_report(result, tmp_path)
    assert calls == []


def _result_files(out) -> dict:
    """Every output file except timing.json, relative path -> bytes."""
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "timing.json"
    }


def _count_run_one(monkeypatch) -> list:
    """Replace `harness.run_one` with a wrapper that records each call's seed."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return run_one(*args, **kwargs)

    monkeypatch.setattr(harness, "run_one", counting)
    return calls


def test_failures_md_lists_failed_cells_with_their_error(tmp_path, monkeypatch):
    original = family_d.run_family_d

    def failing(env, mode, ledger, seed, *rest):
        if seed == 1:
            raise RuntimeError("checker crashed\n- seed 9: not a listed run")
        return original(env, mode, ledger, seed, *rest)

    monkeypatch.setattr(family_d, "run_family_d", failing)
    config = parse_config(json.dumps({"family": "D", "seeds": "0..1", "env": {"n_constraints": 8}}))
    result = run_grid(config)
    # The failed cell's trace is dropped; the completed one is kept.
    assert [c.trace is not None for c in result.cells] == [True, False]
    write_report(result, tmp_path)
    lines = (tmp_path / "failures.md").read_text().splitlines()
    assert lines[lines.index("## baseline") + 1:] == [
        "(1 failed cells; aggregate is low-confidence)",
        "- failed seed 1: RuntimeError: checker crashed - seed 9: not a listed run",
        "- seed 0: objective %s, status completed, trace: traces/baseline/seed_0.jsonl"
        % format(result.cells[0].record.objective, ".6g"),
        "",
    ]
    assert json.loads((tmp_path / "timing.json").read_text())["trace_replay_seconds"] == 0.0
