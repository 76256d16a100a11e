import importlib.util
import json
import marshal
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

_END_TO_END = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(run_s, cells_per_s, correct=True, failed=0, runs_sha256="ab12"):
    """A result object as `run_once` returns it: perfbench's last line and
    the runs.jsonl hash it printed."""
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {"run_s": {"value": run_s, "unit": "s"},
                    "cells_per_s": {"value": cells_per_s, "unit": "1/s"}},
        "runs_sha256": runs_sha256,
    }


def _pairs(parent_run, change_run, parent_cells, change_cells):
    return [{"parent": _result(pr, pc), "change": _result(cr, cc)}
            for pr, cr, pc, cc in zip(parent_run, change_run, parent_cells, change_cells)]


def test_summary_counts_wins_without_ties_and_takes_inclusive_quartiles():
    tool = _tool()
    pairs = _pairs([1.0, 1.2, 1.1, 1.3, 0.9], [0.8, 1.25, 0.7, 0.6, 0.9],
                   [5.0] * 5, [5.0] * 5)
    block = tool.summarize([1, 2, 3, 4, 5], pairs, _END_TO_END)
    run_s = block["metrics"]["run_s"]
    assert run_s["parent"] == {"median": 1.1, "q1": 1.0, "q3": 1.2,
                               "runs": [1.0, 1.2, 1.1, 1.3, 0.9]}
    assert run_s["change"] == {"median": 0.8, "q1": 0.7, "q3": 0.9,
                               "runs": [0.8, 1.25, 0.7, 0.6, 0.9]}
    # The last pair is a tie: it counts for neither side.
    assert run_s["change_wins"] == "3/5"
    assert run_s["relative_change"] == pytest.approx(0.8 / 1.1 - 1.0, abs=1e-4)
    assert (run_s["unit"], run_s["better"], run_s["bound"]) == ("s", "lower", 0.25)
    assert run_s["gain_shown"] is False
    # Equal on every pair: no wins either way.
    assert block["metrics"]["cells_per_s"]["change_wins"] == "0/5"
    assert block["seeds"] == [1, 2, 3, 4, 5]
    assert block["all_runs_correct"] is True
    assert block["failed"] == {"parent": 0, "change": 0}


@pytest.mark.parametrize("lift, first, shown", [
    (5.0, 9.0, True),     # 9/10 wins, median gap 5.0 > parent IQR 4.5
    (4.0, 14.0, False),   # 10/10 wins, median gap 4.0 < parent IQR 4.5
    (8.0, 9.0, True),
    (8.0, 8.0, False),    # two losses: 8/10 wins
])
def test_gain_needs_nine_tenths_of_wins_and_a_gap_above_the_parent_iqr(lift, first, shown):
    tool = _tool()
    parent = [10.0 + i for i in range(10)]
    change = [p + lift for p in parent]
    change[0] = first
    if first == 8.0:
        change[1] = 8.0
    # run_s mirrors cells_per_s, lower being better.
    pairs = _pairs([100 - p for p in parent], [100 - c for c in change], parent, change)
    block = tool.summarize(list(range(10)), pairs, _END_TO_END)
    cells = block["metrics"]["cells_per_s"]
    assert (cells["parent"]["q1"], cells["parent"]["q3"]) == (12.25, 16.75)
    assert cells["gain_shown"] is shown
    assert block["metrics"]["run_s"]["gain_shown"] is shown


def test_summary_reports_incorrect_runs_and_failures_per_side():
    tool = _tool()
    pairs = _pairs([1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0])
    pairs[1]["change"] = _result(1.0, 2.0, correct=False, failed=3)
    block = tool.summarize([7, 8], pairs, _END_TO_END)
    assert block["all_runs_correct"] is False
    assert block["failed"] == {"parent": 0, "change": 3}


def test_fresh_copy_takes_src_from_one_side_and_the_benchmark_from_the_other(tmp_path):
    tool = _tool()
    for side in ("a", "b"):
        (tmp_path / side / "src" / "__pycache__").mkdir(parents=True)
        (tmp_path / side / "src" / "mod.py").write_text(side)
        (tmp_path / side / "src" / "__pycache__" / "mod.pyc").write_text(side)
        (tmp_path / side / "perfbench").mkdir()
        (tmp_path / side / "perfbench" / "run.py").write_text(side)
        (tmp_path / side / "BENCHMARK.json").write_text(side)
    copy = tool.fresh_copy(tmp_path / "b", tmp_path / "a", tmp_path / "copy")
    assert (copy / "src" / "mod.py").read_text() == "b"
    assert not (copy / "src" / "__pycache__").exists()
    assert (copy / "perfbench" / "run.py").read_text() == "a"
    assert (copy / "BENCHMARK.json").read_text() == "a"


def test_each_copy_is_compiled_from_its_own_source(tmp_path):
    tool = _tool()
    for side in ("a", "b"):
        for tree in ("src/pkg", "perfbench"):
            (tmp_path / side / tree).mkdir(parents=True)
            (tmp_path / side / tree / "mod.py").write_text(f"SIDE = {side!r}\n")
        (tmp_path / side / "src" / "pkg" / "__init__.py").write_text(f"SIDE = {side!r}\n")
        (tmp_path / side / "BENCHMARK.json").write_text(side)
    copies = {side: tool.fresh_copy(tmp_path / side, tmp_path / "a", tmp_path / f"copy_{side}")
              for side in ("a", "b")}
    for copy in copies.values():
        tool.compile_copy(copy)
    for side, copy in copies.items():
        sources = sorted(copy.rglob("*.py"))
        assert len(sources) == 3
        for source in sources:
            cached = Path(importlib.util.cache_from_source(source))
            # The bytecode of the source it sits beside: perfbench is the
            # parent's on both sides, src the side's own.
            expected = "a" if source.parent.name == "perfbench" else side
            assert source.read_text() == f"SIDE = {expected!r}\n"
            assert marshal.loads(cached.read_bytes()[16:]).co_consts[0] == expected


@pytest.mark.parametrize("parent, change, verdict", [
    ([1.0] * 5, [1.3] * 5, "worse"),            # 30% slower against a 25% bound
    ([1.0] * 5, [1.2] * 5, "none"),             # 20% slower, inside the bound
    ([0.6, 0.8, 1.0, 1.2, 1.4], [1.3] * 5, "worse"),
    # Parent IQR 0.4 is 40% of its median: too wide to tell, unless every
    # change run beats every parent run.
    ([0.6, 0.8, 1.0, 1.2, 1.4], [1.0] * 5, "unresolved"),
    ([0.6, 0.8, 1.0, 1.2, 1.4], [0.59] * 5, "none"),
    ([0.6, 0.8, 1.0, 1.2, 1.4], [0.59, 0.59, 0.59, 0.59, 0.6], "unresolved"),
])
def test_regression_verdict_weighs_the_median_against_the_bound_and_parent_spread(
        parent, change, verdict):
    tool = _tool()
    # cells_per_s mirrors run_s, higher being better.
    pairs = _pairs(parent, change, [10 / p for p in parent], [10 / c for c in change])
    block = tool.summarize(list(range(5)), pairs, _END_TO_END)
    assert block["metrics"]["run_s"]["regression"] == verdict


def test_regression_verdict_of_a_higher_is_better_metric():
    tool = _tool()
    pairs = _pairs([1.0] * 5, [1.0] * 5, [10.0] * 5, [7.0] * 5)
    assert tool.summarize(list(range(5)), pairs, _END_TO_END)[
        "metrics"]["cells_per_s"]["regression"] == "worse"
    pairs = _pairs([1.0] * 5, [1.0] * 5, [10.0] * 5, [8.0] * 5)
    assert tool.summarize(list(range(5)), pairs, _END_TO_END)[
        "metrics"]["cells_per_s"]["regression"] == "none"


@pytest.mark.parametrize("workloads", [["a_control,c_watched"], ["a_control", "c_watched"]])
def test_several_workloads_run_their_pairs_in_turn_and_print_a_block_each(
        tmp_path, monkeypatch, capsys, workloads):
    tool = _tool()
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "hoardbench").mkdir(parents=True)
        (tmp_path / side / "perfbench").mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": _END_TO_END}))
    calls = []

    def fake_run_once(copy, workload, seed, seconds):
        calls.append((workload, seed, copy.name))
        run_s = 1.0 if copy.name == "parent" else 0.5
        return _result(run_s, 1.0 / run_s)

    monkeypatch.setattr(tool, "run_once", fake_run_once)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", *workloads,
            "--seeds", "3..4", "--seconds", "1", "--out", str(tmp_path / "pairs.json")]
    assert tool.main(argv) == 0
    # Each workload's pairs in turn, the parent first on even pair indices.
    assert calls == [
        ("a_control", 3, "parent"), ("a_control", 3, "change"),
        ("a_control", 4, "change"), ("a_control", 4, "parent"),
        ("c_watched", 3, "parent"), ("c_watched", 3, "change"),
        ("c_watched", 4, "change"), ("c_watched", 4, "parent"),
    ]
    printed = json.loads(capsys.readouterr().out)
    assert printed == json.loads((tmp_path / "pairs.json").read_text())
    assert list(printed) == ["a_control", "c_watched"]
    for block in printed.values():
        assert block["seeds"] == [3, 4]
        assert block["metrics"]["run_s"]["change_wins"] == "2/2"


def test_run_once_takes_the_runs_hash_perfbench_printed(tmp_path, monkeypatch):
    tool = _tool()
    printed = {"correct": True, "attempted": 4, "failed": 0, "metrics": {}}
    stdout = ["workload d_verify seed 3: family D", "runs_sha256 " + "c0" * 32,
              "outputs identical across 3 runs: True", json.dumps(printed)]

    def fake_run(cmd, cwd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout="\n".join(stdout) + "\n", stderr="")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.run_once(tmp_path, "d_verify", 3, 1.0) == {**printed, "runs_sha256": "c0" * 32}
    del stdout[1]
    assert tool.run_once(tmp_path, "d_verify", 3, 1.0)["runs_sha256"] is None


def test_runs_hash_identity_needs_the_same_hash_on_both_sides_of_every_pair(
        tmp_path, monkeypatch, capsys):
    tool = _tool()
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "hoardbench").mkdir(parents=True)
        (tmp_path / side / "perfbench").mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": _END_TO_END}))

    def fake_run_once(copy, workload, seed, seconds):
        # Each seed writes its own outputs. On c_watched the change's second
        # seed differs; on d_verify the parent's second run printed no hash.
        digest = f"seed{seed}"
        if (workload, seed, copy.name) == ("c_watched", 4, "change"):
            digest = "other"
        if (workload, seed, copy.name) == ("d_verify", 4, "parent"):
            digest = None
        return _result(1.0, 1.0, runs_sha256=digest)

    monkeypatch.setattr(tool, "run_once", fake_run_once)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "a_control,c_watched,d_verify", "--seeds", "3..4", "--seconds", "1"]
    assert tool.main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    assert {name: block["runs_sha256_identical"] for name, block in printed.items()} == {
        "a_control": True, "c_watched": False, "d_verify": False}
