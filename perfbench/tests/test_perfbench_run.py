"""One tiny pass of run.py per workload, traced and untraced; the missing-source
exit."""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS


def _quiet(*_):
    pass


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
def test_tiny_pass(name, trace):
    result = run.run_benchmark(WORKLOADS[name], seed=3, seconds=0, trace=trace,
                               tiny=True, setup_reps=1, log=_quiet)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS * WORKLOADS[name].cells(tiny=True)
    assert set(result["metrics"]) == set(run.declared_metrics(run.load_spec(), trace))
    if trace:
        assert result["metrics"]["memory.oracle_mismatches"]["value"] == 0
        assert result["metrics"]["trace.coverage_frac"]["value"] > 0.5
    else:
        assert result["metrics"]["cells_per_s"]["value"] > 0
    assert not (run.ROOT / run.WORK_DIR).exists()


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in run.load_spec()["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "d_verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
