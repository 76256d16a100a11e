import csv
import dataclasses
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
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
        # A running sum of the ledger is not a setting.
        ("ledger.task_cost", {"ledger": {"task_cost": 0.0}}),
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
        ("A", {"trials": 1}, "z_range", [[0.2, 0.8], [0.3, 0.7]]),
        ("C", {"caches": 5}, "forbidden_zone", [[0, 0, 2, 2], [5, 5, 9, 9]]),
    ],
)
def test_sweep_over_tuple_field_runs(tmp_path, family, env, key, values):
    # JSON writes tuple fields as lists; each cell must get the tuple back.
    config = parse_config(json.dumps({
        "family": family, "seeds": "0..1", "env": env,
        "sweep": {"key": key, "values": values},
    }))
    result = run_grid(config)
    assert [c.record.error for c in result.cells] == [""] * 4
    labels = [f"baseline@{key}={v}" for v in values]
    assert [c.variant for c in result.cells] == [label for label in labels for _ in range(2)]
    # Such labels hold a comma; summary.csv quotes them, so every row keeps
    # its columns and gives its label back.
    with open(write_report(result, tmp_path) / "summary.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == harness.SUMMARY_COLUMNS
    assert rows and {len(row) for row in rows} == {len(header)}
    assert {row[0].rsplit("/", 1)[0] for row in rows} == set(labels)


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


@pytest.mark.parametrize("jobs, workers", [(1, []), (2, [2]), (64, [2])])
def test_the_pool_starts_at_most_one_worker_per_cell(monkeypatch, jobs, workers):
    # A fork pool starts every worker it is sized for at once, so a grid of
    # two cells sizes it for two, whatever `--jobs` asks; timing.json keeps
    # the requested count.
    requested = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    config = parse_config(json.dumps({"family": "D", "seeds": "0..1", "env": {"n_constraints": 8}}))
    result = run_grid(config, jobs=jobs)
    assert requested == workers
    assert [c.seed for c in result.cells] == [0, 1]
    assert result.wallclock["jobs"] == jobs


def test_a_two_cell_grid_runs_in_two_workers_under_two_jobs(tmp_path, monkeypatch):
    # Each cell names its worker, then waits for the other cell to start, so
    # the two can run together only if their chunks went to different
    # workers; one worker holding both would wait out the timeout alone.
    document = {"family": "B", "seeds": 0, "env": {"n_events": 32},
                "ablations": ["flat_archive"]}
    serial = _result_files(_run_into(tmp_path, document, "jobs1"))
    started = tmp_path / "started"
    started.mkdir()

    def waiting(*args, **kwargs):
        (started / str(os.getpid())).touch()
        deadline = time.monotonic() + 10.0
        while len(list(started.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        return run_one(*args, **kwargs)

    monkeypatch.setattr(harness, "run_one", waiting)
    pooled = _result_files(_run_into(tmp_path, document, "jobs2", jobs=2))
    assert len(list(started.iterdir())) == 2
    assert os.getpid() not in {int(p.name) for p in started.iterdir()}
    for files in (serial, pooled):
        del files["resolved_config.json"]  # differs by its output_dir only
    assert pooled == serial


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
    # Two seeds list all four cells. Baseline seed 0 passes every check, so
    # the grid drops its trace and the report gives it no window; the other
    # three each get one, written without re-running a cell. A D checker
    # segment ends past the trace, which records one step per proposal.
    config = parse_config(json.dumps(D_TWO_SEEDS))
    assert [c.trace is not None for c in run_grid(config).cells] == [False, True, True, True]
    outputs = outputs_by_jobs(D_TWO_SEEDS)
    files, _ = outputs[1]
    assert [name for name in files if name.startswith("traces/")] == [
        "traces/baseline/seed_1_steps_0_1.jsonl",
        "traces/single_agent/seed_0_steps_0_0.jsonl",
        "traces/single_agent/seed_1_steps_0_0.jsonl",
    ]
    assert outputs[1] == outputs[2]


def _listed(failures_md: str) -> dict[str, dict[int, str | None]]:
    """Variant label -> each seed failures.md lists, in its order, with the
    window file it gives the seed, None for none."""
    listed: dict[str, dict[int, str | None]] = {}
    for line in failures_md.splitlines():
        if line.startswith("## "):
            label = listed.setdefault(line[3:], {})
        elif line.startswith("- seed "):
            where = line.split(", trace: ")[1]
            label[int(line.split()[2].rstrip(":"))] = (
                None if where == "none" else where.split(" (steps ")[0])
    return listed


def test_grid_keeps_exactly_the_traces_failures_md_lists(tmp_path, monkeypatch):
    # More seeds than are listed, a failed goal, tied objectives that seeds
    # must order, a failing cell and a sweep: the grid's bounded keep and
    # failures.md rank with the one rule. Odd seeds fail a check, so only
    # they get a window.
    original = family_d.run_family_d

    def tied(env, mode, ledger, seed, *rest):
        if seed == 4 and env.plan_length == 8:
            raise RuntimeError("checker crashed")
        record = original(env, mode, ledger, seed, *rest)
        record.objective = float(seed // 2 % 3)
        record.goal_verdict = int(seed != 7)
        passed = seed % 2 == 0
        record.signals = [{"emitted_at": 1, "segment": [0, 1], "verdict": passed,
                           "ground_truth_verdict": passed, "predicate_id": "even"}]
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
    listed = _listed(failures_md)
    assert all(len(seeds) == WORST_RUNS_LISTED for seeds in listed.values())
    # Seed 7 failed its goal and ranks first. Then objective 2 (seeds 4, 5),
    # then objective 1 (seeds 2, 3 and 8) by seed. At plan length 8, seed 4
    # failed and seed 2 moves up.
    assert list(listed["baseline@plan_length=8"]) == [7, 5, 2]
    assert list(listed["baseline@plan_length=9"]) == [7, 4, 5]
    windows = {label: sorted(seed for seed, where in seeds.items() if where)
               for label, seeds in listed.items()}
    assert windows == kept == {label: [5, 7] for label in listed}
    assert sorted(where for seeds in listed.values() for where in seeds.values() if where) == \
        sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.glob("traces/*/*"))
    assert "- failed seed 4: RuntimeError: checker crashed" in failures_md
    assert "  - first failed check: even, segment 0..1, verdict fail, ground truth fail" \
        in failures_md
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert timing["trace_replay_seconds"] == 0.0


A_NO_FEEDBACK = {"family": "A", "seeds": "2..3", "env": {"trials": 2, "horizon": 60},
                 "ablations": ["no_feedback"]}


def _run_into(tmp_path, document, name="out", jobs=1):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    out = tmp_path / name
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", str(jobs)]) == 0
    return out


def test_failures_md_names_the_failed_check_and_writes_its_window(tmp_path, monkeypatch):
    # The open-loop agent fails to stabilize, seed 2 in its first trial and
    # seed 3 only in its second, whose window starts LEAD_IN steps before
    # it. Every baseline cell passes, so none gets a file.
    out = _run_into(tmp_path, A_NO_FEEDBACK)
    files = _result_files(out)
    pooled = _result_files(_run_into(tmp_path, A_NO_FEEDBACK, "jobs2", jobs=2))
    del pooled["resolved_config.json"]  # differs by its output_dir only
    assert pooled == {name: data for name, data in files.items() if name != "resolved_config.json"}
    assert harness.LEAD_IN == 20
    windows = {2: (0, 60), 3: (41, 121)}
    assert [name for name in files if name.startswith("traces/")] == [
        f"traces/no_feedback/seed_{seed}_steps_{first}_{last}.jsonl"
        for seed, (first, last) in windows.items()
    ]
    failures_md = (out / "failures.md").read_text()
    section = failures_md.split("## no_feedback\n")[1]
    assert "goal_verdict 0, trace: traces/no_feedback/seed_3_steps_41_121.jsonl " \
        "(steps 41..121)\n  - costs: " in section
    assert "  - first failed check: stabilized, segment 61..121, verdict fail, " \
        "ground truth fail\n  - first wrong verdict: none\n" in section
    baseline = _listed(failures_md)["baseline"]
    assert list(baseline) == [2, 3] and set(baseline.values()) == {None}
    # A window is those lines of the whole trace, replayed.
    config = parse_config(json.dumps(A_NO_FEEDBACK))
    agent = dict(variant_agents(config))["no_feedback"]
    for seed, (first, last) in windows.items():
        trace = Trace()
        run_one(config, agent, seed, None, trace)
        whole = trace.to_jsonl().splitlines(keepends=True)
        window = files[f"traces/no_feedback/seed_{seed}_steps_{first}_{last}.jsonl"]
        assert window.decode() == "".join(whole[first:last + 1])
    # `report --in` replays every listed cell that gets a window, in
    # failures.md's order, the one whose file is gone too.
    (out / "traces/no_feedback/seed_3_steps_41_121.jsonl").unlink()
    calls = _count_run_one(monkeypatch)
    assert main(["report", "--in", str(out)]) == 0
    assert calls == [2, 3]
    assert _result_files(out) == files


L = harness.LEAD_IN


@pytest.mark.parametrize("segment, length, window", [
    ((3 * L, 5 * L), 10 * L, (2 * L, 5 * L)),
    ((L // 2, L), 10 * L, (0, L)),
    # B's query_delay and D's two steps per repair round put segment ends,
    # or whole segments, past the last traced step.
    ((0, 10290), 10240, (0, 10239)),
    ((6, 6), 6, (0, 5)),
    ((5 * L, 5 * L), 2 * L, (L - 1, 2 * L - 1)),
])
def test_a_window_is_the_segment_clipped_to_the_trace_after_its_lead_in(segment, length, window):
    assert harness._window({"segment": list(segment)}, length) == window


def test_report_takes_no_whole_trace_or_other_range_for_a_window(tmp_path, monkeypatch):
    # A directory written before windows holds each listed cell's whole
    # trace at traces/<variant>/seed_<s>.jsonl. `report --in` reads no file
    # under traces/: it replays every listed cell that gets a window, and
    # clears a window file of another range.
    out = _run_into(tmp_path, A_NO_FEEDBACK)
    files = _result_files(out)
    window = out / "traces/no_feedback/seed_3_steps_41_121.jsonl"
    window.unlink()
    (out / "traces/no_feedback/seed_3.jsonl").write_text("a whole trace\n")
    (out / "traces/no_feedback/seed_3_steps_40_121.jsonl").write_text("another range\n")
    calls = _count_run_one(monkeypatch)
    assert main(["report", "--in", str(out)]) == 0
    assert calls == [2, 3]
    assert window.read_bytes() == files[str(window.relative_to(out))]
    assert (out / "failures.md").read_bytes() == files["failures.md"]
    assert not (out / "traces/no_feedback/seed_3_steps_40_121.jsonl").exists()


def test_a_run_clears_the_windows_of_variants_its_grid_lacks(tmp_path):
    # A grid with an ablation writes its windows; the same grid without it,
    # run into the same directory, leaves the directory as a fresh run does.
    grid = {"family": "A", "seeds": "0..1", "env": {"trials": 2, "z_drift": 0.05}}
    out = _run_into(tmp_path, {**grid, "ablations": ["no_feedback"]})
    assert sorted(p.name for p in (out / "traces/no_feedback").iterdir()) == [
        "seed_0_steps_0_240.jsonl", "seed_1_steps_0_240.jsonl",
    ]
    _run_into(tmp_path, grid)
    fresh = _result_files(_run_into(tmp_path, grid, "fresh"))
    files = _result_files(out)
    del files["resolved_config.json"], fresh["resolved_config.json"]  # their output_dir
    assert files == fresh
    assert not (out / "traces/no_feedback").exists()


def test_report_replays_every_listed_window(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(D_TWO_SEEDS))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    before = _result_files(out)
    grid_timing = json.loads((out / "timing.json").read_text())
    assert set(grid_timing["cell_seconds"]) == {"baseline", "single_agent"}
    assert grid_timing["trace_replay_seconds"] == 0.0
    assert 0.0 < grid_timing["trace_write_seconds"] <= grid_timing["report_seconds"]
    # With every window file in place, `report --in` still replays each
    # listed cell that gets one, in failures.md's order: baseline seed 1,
    # then single_agent seeds 0 and 1; baseline seed 0 gets no window.
    calls = _count_run_one(monkeypatch)
    assert main(["report", "--in", str(out)]) == 0
    assert calls == [1, 0, 1]
    timing = json.loads((out / "timing.json").read_text())
    # A replay's seconds include writing its window.
    assert 0.0 < timing["trace_write_seconds"] <= timing["trace_replay_seconds"] \
        <= timing["report_seconds"]
    # The grid's wall clock and cell seconds survive the re-report.
    for key in ("total_seconds", "jobs", "cell_seconds"):
        assert timing[key] == grid_timing[key]
    assert _result_files(out) == before


def test_report_writes_no_window_for_a_replay_that_differs_from_its_record(
        tmp_path, monkeypatch, capsys):
    # The directory is written, then the family's code changes: every
    # replayed listed cell now records another repair_rounds.
    out = _run_into(tmp_path, D_TWO_SEEDS)
    before = _result_files(out)
    family = FAMILIES["D"]

    def changed(env, agent, ledger, seed, trace):
        record = family.run(env, agent, ledger, seed, trace)
        record.metrics["repair_rounds"] += 1.0
        return record

    monkeypatch.setitem(FAMILIES, "D", dataclasses.replace(family, run=changed))
    capsys.readouterr()
    assert main(["report", "--in", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace replay differs from runs.jsonl in 3 listed cell(s)")
    assert "baseline seed 1: metrics.repair_rounds" in err
    failures_md = (out / "failures.md").read_text()
    assert failures_md.count("trace: (trace replay differs from runs.jsonl: first differing "
                             "field metrics.repair_rounds)\n") == 3
    assert not list((out / "traces").rglob("*.jsonl"))
    # Every other file is rewritten as it was.
    after = _result_files(out)
    for name in ("resolved_config.json", "runs.jsonl", "summary.csv", "constraint_report.json"):
        assert after[name] == before[name]


@pytest.mark.parametrize("stored, rerun, path", [
    ({"a": 1, "b": {"c": [1, 2]}}, {"a": 1, "b": {"c": [1, 3]}}, "b.c[1]"),
    ({"a": [1, 2]}, {"a": [1, 2, 3]}, "a[2]"),
    ({"a": 1}, {"a": 1, "z": 2}, "z"),
    ({"a": [{"x": math.nan}], "b": 1}, {"a": [{"x": math.nan}], "b": 2}, "b"),
    ({"a": 1.0}, {"a": "1.0"}, "a"),
])
def test_first_difference_names_the_path_of_the_first_differing_value(stored, rerun, path):
    assert harness._first_difference(stored, rerun) == path


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
    (out / listed.split("trace: ")[1].split(" (steps ")[0]).unlink()
    calls = []

    def recording(config, agent, seed, sweep_value=None, trace=None, **kwargs):
        calls.append((agent["feedback"], sweep_value, seed))
        return run_one(config, agent, seed, sweep_value, trace, **kwargs)

    monkeypatch.setattr(harness, "run_one", recording)
    assert main(["report", "--in", str(out)]) == 0
    # Every listed cell but baseline seed 0 at z_range [0.2, 0.4] gets a
    # window; the replays go variant by variant, in failures.md's order.
    assert calls == [
        (True, [0.2, 0.4], 1), (True, [0.5, 0.8], 0), (True, [0.5, 0.8], 1),
        (False, [0.2, 0.4], 0), (False, [0.2, 0.4], 1), (False, [0.5, 0.8], 0),
        (False, [0.5, 0.8], 1),
    ]
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
        "source_sha256", "runs_sha256",
        "report_seconds", "trace_replay_seconds", "trace_write_seconds", "cell_seconds",
    }
    assert rewritten["cell_seconds"] == {}
    assert rewritten["source_sha256"] is None


def _sources_sha256(root: Path) -> str:
    """The source digest recomputed here: each `.py` file under `root`, by
    sorted relative path, as path, NUL, byte length, NUL, bytes."""
    digest = hashlib.sha256()
    paths = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*.py"))
    for name, path in paths:
        data = path.read_bytes()
        digest.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return digest.hexdigest()


def test_timing_names_the_source_and_the_runs_it_describes(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(D_TWO_SEEDS))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    timing = json.loads((out / "timing.json").read_text())
    package = Path(hoardbench.__file__).resolve().parent
    assert timing["source_sha256"] == _sources_sha256(package) == harness.source_sha256()
    assert timing["runs_sha256"] == hashlib.sha256((out / "runs.jsonl").read_bytes()).hexdigest()
    capsys.readouterr()
    # Re-reporting with the code that wrote the directory warns of nothing.
    assert main(["report", "--in", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "timing.json").read_text())["runs_sha256"] == timing["runs_sha256"]


def test_report_warns_when_the_directory_names_other_source(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(D_TWO_SEEDS))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    timing = json.loads((out / "timing.json").read_text())
    running = timing["source_sha256"]
    timing["source_sha256"] = "0" * 64
    (out / "timing.json").write_text(json.dumps(timing))
    before = _result_files(out)
    capsys.readouterr()
    assert main(["report", "--in", str(out)]) == 0
    err = capsys.readouterr().err
    assert err == (f"warning: {out} was written by other code: its timing.json names "
                   f"source_sha256 {'0' * 64}, the running code's is {running}\n")
    # A warning, not a refusal: every report is rewritten as before.
    # timing.json still names the code that wrote runs.jsonl, so the next
    # re-report warns again.
    assert _result_files(out) == before
    assert json.loads((out / "timing.json").read_text())["source_sha256"] == "0" * 64
    assert main(["report", "--in", str(out)]) == 0
    assert capsys.readouterr().err == err


def test_report_after_a_trace_write_cut_short_replays_it(tmp_path, monkeypatch):
    # A trace write that stops partway leaves nothing at the trace's path,
    # and the next `report --in` replays every listed cell that gets a
    # window, that cell included.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(D_TWO_SEEDS))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    before = _result_files(out)
    trace_file = out / "traces" / "baseline" / "seed_1_steps_0_1.jsonl"
    trace_file.unlink()

    lines = Trace.jsonl_lines

    def cut_short(self, *window):
        yield next(lines(self, *window))
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(Trace, "jsonl_lines", cut_short)
        with pytest.raises(KeyboardInterrupt):
            main(["report", "--in", str(out)])
    assert not trace_file.exists()
    assert not any(p.name.endswith(".partial") for p in out.rglob("*"))

    calls = _count_run_one(monkeypatch)
    assert main(["report", "--in", str(out)]) == 0
    assert calls == [1, 0, 1]
    assert _result_files(out) == before


def test_report_ignores_traces_of_an_older_run_in_the_same_directory(tmp_path, monkeypatch):
    # An older run with other results left windows, some at the same paths.
    # A new run whose report stops after runs.jsonl leaves none of them, and
    # `report --in` replays every listed cell that gets a window.
    reference = tmp_path / "reference"
    write_report(run_grid(parse_config(json.dumps(D_TWO_SEEDS))), reference)
    out = tmp_path / "out"
    older = {**D_TWO_SEEDS, "env": {"n_constraints": 9}}
    write_report(run_grid(parse_config(json.dumps(older))), out)
    stale = _result_files(out)
    traces = [name for name in _result_files(reference) if name.startswith("traces/")]
    assert len(traces) == 3 and any(name in stale for name in traces)
    assert all(stale.get(name) != _result_files(reference)[name] for name in traces)

    def interrupted(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(harness, "_write_failures", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_report(run_grid(parse_config(json.dumps(D_TWO_SEEDS))), out)
    calls = _count_run_one(monkeypatch)
    assert main(["report", "--in", str(out)]) == 0
    assert sorted(calls) == [0, 1, 1]
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


@pytest.mark.parametrize("damage, message", [
    (lambda lines: lines + lines[1:2],
     "line 4: repeats the record of variant 'baseline', seed 1"),
    (lambda lines: [lines[0], lines[1].replace(b'"seed":1,', b'"seed":3,'), lines[2]],
     "line 2: seed 3 is outside the config's seeds 0..2"),
], ids=["repeated_cell", "seed_out_of_range"])
def test_report_of_runs_that_repeat_a_cell_or_leave_the_seed_range_is_refused(
    tmp_path, capsys, damage, message
):
    # Re-reporting such a file would count a seed twice, or one the config
    # never ran, in summary.csv's n_seeds and every statistic.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"family": "D", "seeds": "0..2", "env": {"n_constraints": 3}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    runs = out / "runs.jsonl"
    runs.write_bytes(b"".join(damage(runs.read_bytes().splitlines(keepends=True))))
    summary = (out / "summary.csv").read_bytes()
    capsys.readouterr()
    assert main(["report", "--in", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{runs} {message}" in err
    assert (out / "summary.csv").read_bytes() == summary


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
    # The failed cell has no trace; the completed one passes every check,
    # so it keeps none either.
    assert [c.trace is not None for c in result.cells] == [False, False]
    write_report(result, tmp_path)
    lines = (tmp_path / "failures.md").read_text().splitlines()
    record = result.cells[0].record
    assert lines[lines.index("## baseline") + 1:] == [
        "(1 failed cells; aggregate is low-confidence)",
        "- failed seed 1: RuntimeError: checker crashed - seed 9: not a listed run",
        "- seed 0: objective %s, status completed, goal_verdict 1, trace: none"
        % format(record.objective, ".6g"),
        "  - costs: " + ", ".join(f"{k} {record.costs[k]:.6g}" for k in sorted(record.costs)),
        "  - first failed check: none",
        "  - first wrong verdict: none",
        "",
    ]
    assert json.loads((tmp_path / "timing.json").read_text())["trace_replay_seconds"] == 0.0
