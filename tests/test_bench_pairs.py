import importlib.util
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


def _result(run_s, cells_per_s, correct=True, failed=0):
    """A result object as perfbench prints it last."""
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {"run_s": {"value": run_s, "unit": "s"},
                    "cells_per_s": {"value": cells_per_s, "unit": "1/s"}},
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
