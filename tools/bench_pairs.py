"""Benchmark two checkouts of hoardbench in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload a_control[,c_watched ...] \
        --seeds 501..510 [--seconds 28] [--out pairs.json]

Each side is copied fresh into a temporary directory: its own `src`, and
PARENT's `perfbench` and `BENCHMARK.json`, so both sides run the same
benchmark code. Each copy's `src` and `perfbench` are then byte-compiled
once, so no benchmark process spends its time compiling source, a cost that
grows with the source's line count. For each seed, one pair:
`perfbench/run.py --workload W --seed S --seconds N --trace 0` once in each
copy, with `PYTHONDONTWRITEBYTECODE=1`, so each copy's bytecode stays what
was compiled from its own source. The parent runs first on even pair
indices and the change first on odd ones. `--workload` names one workload
or several, space- or comma-separated; each runs its pairs over every seed
in turn, in the order named.

The summary, printed as JSON on stdout and written to `--out` when given,
has the shape of a `BENCH_*.json` file's `workloads` block, one block per
workload named: per workload its
seeds, whether every run was correct, failed operations per side, and per
end-to-end metric of BENCHMARK.json the unit, the direction, the bound, each
side's median, inclusive quartiles and runs, the change's wins (ties count
for neither side), the relative change of the medians, and `gain_shown`:
whether the change won at least nine tenths of the pairs and the medians
differ, in the metric's better direction, by more than the parent's
interquartile distance; and `regression`, the no-regression verdict:
`"worse"` when the change's median is worse than the parent's by more than
the bound (a fraction of the parent's median), else `"unresolved"` when the
parent's interquartile distance is wider than that same fraction of its
median and not every change run beats every parent run, else `"none"`.
Progress goes to stderr. The exit code is 0, or 2 when a benchmark run
crashes or a side has no `src/hoardbench`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

from same_outputs import seed_list, workload_list  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIDES = ("parent", "change")
DIGITS = 4


def fresh_copy(src_side: Path, bench_side: Path, dest: Path) -> Path:
    """`src` of `src_side` with `perfbench` and `BENCHMARK.json` of
    `bench_side`, in `dest`, with no bytecode caches."""
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".perfbench")
    shutil.copytree(src_side / "src", dest / "src", ignore=skip)
    shutil.copytree(bench_side / "perfbench", dest / "perfbench", ignore=skip)
    shutil.copy2(bench_side / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def compile_copy(copy: Path) -> None:
    """Byte-compile the `src` and `perfbench` of `copy` in place. A file
    that does not compile gets no bytecode; its run then fails as it would
    have."""
    for tree in ("src", "perfbench"):
        compileall.compile_dir(copy / tree, quiet=2)


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object perfbench prints last, for one untraced invocation."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{copy.name} seed {seed}: perfbench exited {done.returncode}\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def _side(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": round(statistics.median(values), DIGITS),
        "q1": round(q1, DIGITS),
        "q3": round(q3, DIGITS),
        "runs": [round(v, DIGITS) for v in values],
    }


def summarize(seeds: list[int], pairs: list[dict[str, dict]], end_to_end: list[dict]) -> dict:
    """One workload's block from its pairs, one `{"parent": result, "change":
    result}` per seed, each result as perfbench prints it. `end_to_end` is
    BENCHMARK.json's list of end-to-end metrics. Medians and quartiles are
    taken over unrounded values; the block holds them rounded."""
    metrics = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive")
        parent, change = (statistics.median(values[side]) for side in SIDES)
        gap = (parent - change) if lower else (change - parent)
        beats_every_run = (max(values["change"]) < min(values["parent"]) if lower
                           else min(values["change"]) > max(values["parent"]))
        if -gap > spec["bound"] * parent:
            regression = "worse"
        elif (q3 - q1) > spec["bound"] * parent and not beats_every_run:
            regression = "unresolved"
        else:
            regression = "none"
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": _side(values["parent"]),
            "change": _side(values["change"]),
            "change_wins": f"{wins}/{len(pairs)}",
            "relative_change": round(change / parent - 1.0, DIGITS),
            "gain_shown": wins * 10 >= 9 * len(pairs) and gap > q3 - q1,
            "regression": regression,
        }
    return {
        "seeds": list(seeds),
        "all_runs_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "metrics": metrics,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", type=workload_list, required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    args.workload = [name for names in args.workload for name in names]
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "src" / "hoardbench").is_dir():
            print(f"{side} {checkout} has no src/hoardbench", file=sys.stderr)
            return 2
    end_to_end = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    block = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        copies = {side: fresh_copy(checkout, checkouts["parent"], Path(work) / side)
                  for side, checkout in checkouts.items()}
        for copy in copies.values():
            compile_copy(copy)
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {}
                for side in order:
                    try:
                        pair[side] = run_once(copies[side], workload, seed, args.seconds)
                    except RuntimeError as exc:
                        print(exc, file=sys.stderr)
                        return 2
                pairs.append(pair)
                print(f"{workload} seed {seed} ({order[0]} first): " + ", ".join(
                    f"{name} {pair['parent']['metrics'][name]['value']:.4g} -> "
                    f"{pair['change']['metrics'][name]['value']:.4g}"
                    for name in (m["name"] for m in end_to_end)
                ), file=sys.stderr)
            block[workload] = summarize(list(args.seeds), pairs, end_to_end)
    text = json.dumps(block, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
