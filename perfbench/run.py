"""hoardbench benchmark: end-to-end and per-layer numbers for one workload.

    python3 perfbench/run.py --workload b_archive --seed 0 --seconds 28 --trace 0

Run from the repository root. The workloads are in `workloads.py`; the metric
names and units are the ones declared in BENCHMARK.json at the root.

`--trace 0` (end to end) times `SETUP_REPS` fresh interpreters running
`hoardbench validate` (setup_s), then runs `hoardbench run --jobs 1` in a
closed loop, one separate process at a time, until `--seconds` is used up (at
least `MIN_REPS` runs). It reports medians of setup_s, run_s, cells_per_s and
peak_rss_mb. Times are in reference seconds (see `speed.py`): wall time
divided by the CPU slowdown measured on the run's own, pinned core. The
wall-clock figures are printed beside them.

`--trace 1` (per layer) repeats, under the same budget and at least once, an
untraced and a traced run with `--jobs 1`, plus an untraced run with the
workload's own `--jobs` when that is not 1. It reports the per-layer numbers
of the traced runs (medians), the tracing overhead against the untraced
`--jobs 1` runs, and the wall time of the runs with the workload's `--jobs`.

Every run is checked: `hoardbench run` exits 0, every cell completes, every
failure-trace replay succeeds, and all output files except timing.json are
byte-identical across the runs of one invocation (traced and untraced alike).
The traced run also repeats every 16th flat-store retrieve through
`brute_force_retrieve`; memory.oracle_mismatches must stay 0. The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Exit code 0 with a result, 1 when a run crashes, 2 when the checkout
has no hoardbench source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from tracing import LAYER_MOVES, tail  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPS = 9
MIN_REPS = 2
MAX_REPS = 500
TIME_LIMIT_S = 170  # a whole invocation, set-up included
WORK_DIR = ".perfbench"


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(spec: dict, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _src_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list[str], deadline: float, env: dict | None = None) -> tuple[int, str, str]:
    """Run a process group to completion; kill all of it at the deadline."""
    with subprocess.Popen(cmd, cwd=ROOT, env=env, text=True, start_new_session=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"time limit of {TIME_LIMIT_S} s reached: {' '.join(cmd)}")
    return proc.returncode, out, err


def measure_setup(config_path: Path, family: str, reps: int,
                  deadline: float) -> tuple[list[float], list[float]]:
    """Wall and reference seconds of fresh interpreters running `hoardbench
    validate`, pinned to this process's CPU and probed before and after each.
    One untimed run goes first, so bytecode compilation is not counted."""
    cmd = [sys.executable, "-m", "hoardbench.cli", "validate", "--config", str(config_path)]
    env = _src_env()
    wall, reference = [], []
    previous = speed.pin_to_one_cpu()
    try:
        for i in range(reps + 1):
            probes = [speed.probe() for _ in range(5)]
            start = time.perf_counter()
            rc, out, err = _run(cmd, deadline, env)
            elapsed = time.perf_counter() - start
            probes += [speed.probe() for _ in range(5)]
            if rc != 0 or json.loads(out).get("family") != family:
                raise BenchError(f"validate failed ({rc}): {err[-2000:]}")
            if i:
                wall.append(elapsed)
                reference.append(elapsed / speed.slowdown(probes))
    finally:
        os.sched_setaffinity(0, previous)
    return wall, reference


def digest_outputs(out: Path) -> dict[str, str]:
    """sha256 of every output file except timing.json."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "timing.json"
    }


def check_outputs(out: Path, expected_cells: int) -> dict:
    statuses = []
    with open(out / "runs.jsonl") as fh:
        statuses = [json.loads(line)["status"] for line in fh if line.strip()]
    replays = replay_failures = 0
    for line in (out / "failures.md").read_text().splitlines():
        if line.startswith("- seed "):
            replays += 1
            replay_failures += "trace replay failed" in line
    failed_cells = sum(s == "failed" for s in statuses) + max(0, expected_cells - len(statuses))
    return {
        "attempted": expected_cells + replays,
        "failed": failed_cells + replay_failures,
        "digests": digest_outputs(out),
    }


def run_child(mode: str, work: Path, config_path: Path, jobs: int, expected_cells: int,
              deadline: float) -> dict:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    result_path = work / "child.json"
    cmd = [
        sys.executable, str(HERE / "child.py"), str(result_path), mode,
        "run", "--config", str(config_path), "--out", str(out), "--jobs", str(jobs),
    ]
    rc, _, err = _run(cmd, deadline)
    if rc != 0:
        raise BenchError(f"{mode} run crashed ({rc}): {err[-2000:]}")
    result = json.loads(result_path.read_text())
    result.update(check_outputs(out, expected_cells))
    return result


def closed_loop(seconds: float, once, min_reps: int) -> list:
    """Call `once` back to back until the next call would overrun `seconds`."""
    start = time.perf_counter()
    reps: list = []
    while len(reps) < MAX_REPS:
        before = time.perf_counter()
        reps.append(once())
        last = time.perf_counter() - before
        if len(reps) >= min_reps and time.perf_counter() - start + last > seconds:
            break
    return reps


def _summary_line(name: str, values: list[float], unit: str) -> str:
    value, pct = tail(values)
    label = "max" if pct == 100 else f"p{pct}"
    return (f"{name:<28} median {statistics.median(values):.6g} {unit}  "
            f"min {min(values):.6g}  {label} {value:.6g}  n={len(values)}")


def run_benchmark(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    setup_reps: int = SETUP_REPS,
    log=print,
) -> dict:
    """Run one workload and return the result object printed last."""
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = load_spec()
    declared = declared_metrics(spec, trace)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    base = ROOT / WORK_DIR
    work = base / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = workload.config(seed, tiny)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True))
        cells = workload.cells(tiny)
        log(f"workload {workload.name} seed {seed}: family {workload.family}, "
            f"grid seeds {config['seeds']}, {cells} cells per run, "
            f"jobs 1{', traced' if trace else ''}"
            f"{f', pool run with --jobs {workload.jobs}' if trace and workload.jobs > 1 else ''}")
        log(f"why: {why[workload.name]}")
        if trace:
            reps, metrics, checks_ok = _traced(workload, work, config_path, cells, seconds,
                                               deadline)
        else:
            reps, metrics, checks_ok = _untraced(workload, work, config_path, cells, seconds,
                                                 setup_reps, deadline, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    digests = reps[0]["digests"]
    identical = all(r["digests"] == digests for r in reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    exit_ok = all(r["rc"] == 0 for r in reps)
    log(f"runs_sha256 {digests.get('runs.jsonl', '-')}")
    log(f"cells_failed_frac {failed / attempted:.6g} ({failed} of {attempted} cells "
        "and trace replays)")
    log(f"outputs identical across {len(reps)} runs: {identical}")
    if trace:
        for name, unit in declared.items():
            log(f"{name:<36} {metrics[name]:.6g} {unit}")
        for layer, moves in LAYER_MOVES.items():
            log(f"layer {layer:<11} moves {moves}")
        for key, label in (("missing", "not traced (no longer defined)"),
                           ("leftover", "wrappers left installed after the traced run")):
            names = sorted({m for r in reps for m in r.get(key, ())})
            if names:
                log(f"{label}: {', '.join(names)}")
    correct = identical and exit_ok and failed == 0 and checks_ok
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }


def _untraced(workload, work, config_path, cells, seconds, setup_reps, deadline, log):
    setup_wall, setup = measure_setup(config_path, workload.family, setup_reps, deadline)
    reps = closed_loop(
        seconds, lambda: run_child("plain", work, config_path, 1, cells, deadline), MIN_REPS
    )
    series = {
        "setup_s": (setup, "s"),
        "run_s": ([r["run_s"] / r["slowdown"] for r in reps], "s"),
        "cells_per_s": ([r["cells"] * r["grid_slowdown"] / r["grid_s"] for r in reps], "1/s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in reps], "MB"),
        "setup_wall_s": (setup_wall, "s"),
        "run_wall_s": ([r["run_s"] for r in reps], "s"),
        "grid_wall_s": ([r["grid_s"] for r in reps], "s"),
        "report_wall_s": ([r["report_s"] for r in reps], "s"),
        "slowdown": ([r["slowdown"] for r in reps], "x"),
    }
    for name, (values, unit) in series.items():
        log(_summary_line(name, values, unit))
    metrics = {name: statistics.median(values) for name, (values, _) in series.items()}
    return reps, metrics, all(r["cells"] == cells for r in reps)


def _traced(workload, work, config_path, cells, seconds, deadline):
    def pair() -> tuple[dict, dict, list[dict]]:
        plain = run_child("plain", work, config_path, 1, cells, deadline)
        traced = run_child("traced", work, config_path, 1, cells, deadline)
        parallel = ([] if workload.jobs == 1 else
                    [run_child("plain", work, config_path, workload.jobs, cells, deadline)])
        return plain, traced, parallel

    pairs = closed_loop(seconds, pair, 1)
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    parallel = [r for p in pairs for r in p[2]]
    names = traced[0]["layers"].keys()
    metrics = {n: statistics.median(t["layers"][n] for t in traced) for n in names}
    traced_s = statistics.median(
        (t["run_s"] - t["layers"]["bench.oracle_s"]) / t["slowdown"] for t in traced
    )
    untraced_s = statistics.median(p["run_s"] / p["slowdown"] for p in plain)
    metrics["harness.pool_run_s"] = (
        statistics.median(p["run_s"] for p in parallel) if parallel else 0.0
    )
    metrics["trace.run_s"] = traced_s
    metrics["trace.untraced_run_s"] = untraced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    reps = plain + traced + parallel
    checks_ok = (
        not any(t["leftover"] for t in traced)
        and metrics["memory.oracle_mismatches"] == 0
        and all(r["cells"] == cells for r in reps)
    )
    return reps, metrics, checks_ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hoardbench" / "cli.py").is_file():
        print(f"error: no hoardbench source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
