"""Check that two checkouts of hoardbench write the same outputs.

    python3 tools/same_outputs.py PARENT CHANGE [--seeds 0..9] [--workloads b_archive,c_watched]

Runs `hoardbench run` from each checkout's `src` on the benchmark workloads
of `perfbench/workloads.py` (this checkout's, imported and not run), all
four unless `--workloads` names some (space- or comma-separated), at seeds
0, 1, 2 and 601 unless `--seeds` gives a range (`0..9`) or a list
(`3,5`), under `--jobs 1` and `--jobs 2`, then `hoardbench report --in` from CHANGE
on a copy of CHANGE's `--jobs 1` directory. It then compares every output
file except timing.json, traces included, byte for byte: CHANGE's against
PARENT's for the same workload, seed and jobs, CHANGE's `--jobs 2` against
its `--jobs 1`, and the re-report's against the `--jobs 1` run's.
resolved_config.json is compared up to its `output_dir`, which names the
run's own directory.

Every difference is printed. When runs.jsonl differs, so is each key path
that differs inside its records, with list indices collapsed
(`signals[].emitted_at`): whether one side only has it or its values
differ, and in how many records. The exit code is 0 when there is no
difference, 1 when there is one, and 2 when a run fails to start or crashes.

Whenever both checkouts hold a `src/hoardbench`, the last two lines printed
give their source and test line counts and the differences, counted as
`cat src/hoardbench/*.py src/hoardbench/*/*.py | wc -l` and
`cat tests/*.py | wc -l` count them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

# b_archive writes trace windows at workload seed 601 (a cell misses the
# precision target), at none of 0..2.
SEEDS = "0,1,2,601"
JOBS = (1, 2)
SKIPPED = {"timing.json"}
# The files of each line count printed last, by the count's name.
LINE_COUNTS = {
    "source": ("src/hoardbench/*.py", "src/hoardbench/*/*.py"),
    "test": ("tests/*.py",),
}


def hoardbench(checkout: Path, *args: str) -> None:
    """`hoardbench ARGS` with the code of `checkout`. RuntimeError unless it
    exits 0 or 2: exit 2 reports failed cells, which are outputs like any
    other."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "hoardbench.cli", *args], env=env, capture_output=True, text=True,
    )
    if done.returncode not in (0, 2):
        raise RuntimeError(f"{checkout}: hoardbench {' '.join(args)} exited "
                           f"{done.returncode}\n{done.stderr}")


def run(checkout: Path, config: dict, jobs: int, out: Path) -> None:
    """`hoardbench run --jobs JOBS` of `config` into `out` with the code of
    `checkout`."""
    out.mkdir(parents=True)
    config_path = out.parent / f"{out.name}.json"
    config_path.write_text(json.dumps(config))
    hoardbench(checkout, "run", "--config", str(config_path), "--out", str(out),
               "--jobs", str(jobs))


def rereport(checkout: Path, out: Path, copy: Path) -> dict[str, bytes]:
    """The `outputs` of `hoardbench report --in`, run with the code of
    `checkout` on a copy of the results directory `out` made at `copy`. The
    copy's resolved_config.json still names `out`, which is blanked."""
    shutil.copytree(out, copy)
    hoardbench(checkout, "report", "--in", str(copy))
    return outputs(copy, out)


def outputs(out: Path, named: Path | None = None) -> dict[str, bytes]:
    """Every output file under `out` but timing.json, by relative path, with
    resolved_config.json's `output_dir` value blanked: `named`, or `out`
    itself."""
    files = {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name not in SKIPPED
    }
    if "resolved_config.json" in files:
        own = json.dumps(str(named or out)).encode()
        files["resolved_config.json"] = files["resolved_config.json"].replace(own, b'""')
    return files


def differences(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    """The relative paths whose bytes differ or that only one side has."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def _leaves(line: bytes) -> dict[str, list[str]]:
    """Every leaf of one JSON record, as its source text, by key path with
    list indices collapsed to `[]`. An empty list or object is a leaf."""
    out: dict[str, list[str]] = {}

    def walk(value, path: str) -> None:
        if isinstance(value, dict) and value:
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list) and value:
            for item in value:
                walk(item, path + "[]")
        else:
            out.setdefault(path, []).append(json.dumps(value))

    walk(json.loads(line, parse_float=str, parse_int=str, parse_constant=str), "")
    return out


def key_path_differences(a: bytes, b: bytes, names: tuple[str, str]) -> list[str]:
    """What differs between two runs.jsonl files, record by record: each key
    path that only one side has or whose values differ, with the number of
    records in which it does. `names` names the sides a and b. Records that
    differ only in key order or spacing name no path."""
    counts: Counter[tuple[str, str]] = Counter()
    records_a, records_b = a.splitlines(), b.splitlines()
    for line_a, line_b in zip(records_a, records_b):
        if line_a == line_b:
            continue
        leaves_a, leaves_b = _leaves(line_a), _leaves(line_b)
        for path in leaves_a.keys() | leaves_b.keys():
            if path not in leaves_b:
                counts[path, f"only in {names[0]}"] += 1
            elif path not in leaves_a:
                counts[path, f"only in {names[1]}"] += 1
            elif leaves_a[path] != leaves_b[path]:
                counts[path, "differs"] += 1
    lines = [f"{path}: {how}, {n} records" for (path, how), n in sorted(counts.items())]
    if len(records_a) != len(records_b):
        lines.append(f"(record count): {len(records_a)} in {names[0]}, "
                     f"{len(records_b)} in {names[1]}")
    return lines


def line_count(checkout: Path, patterns: tuple[str, ...]) -> int:
    """Newlines in the files of `checkout` that `patterns` match, which is
    what `wc -l` counts in their concatenation."""
    files = [path for pattern in patterns for path in checkout.glob(pattern)]
    return sum(path.read_bytes().count(b"\n") for path in files)


def seed_list(text: str) -> tuple[int, ...]:
    """Seeds from `A..B` (inclusive) or `A,B,...`, all non-negative."""
    try:
        if ".." in text:
            low, high = (int(v) for v in text.split(".."))
            seeds = tuple(range(low, high + 1))
        else:
            seeds = tuple(int(v) for v in text.split(","))
    except ValueError:
        seeds = ()
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"not a seed range or list: {text!r}")
    return seeds


def workload_list(text: str) -> list[str]:
    """Workload names from `A` or `A,B,...`, each one of `WORKLOADS`."""
    names = text.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown workload {', '.join(map(repr, unknown))} "
            f"(choose from {', '.join(WORKLOADS)})"
        )
    return names


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=seed_list, default=SEEDS)
    parser.add_argument("--workloads", nargs="+", type=workload_list,
                        default=[list(WORKLOADS)])
    args = parser.parse_args(argv)
    args.workloads = [name for names in args.workloads for name in names]
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "src" / "hoardbench").is_dir():
            print(f"{side} {checkout} has no src/hoardbench", file=sys.stderr)
            return 2
    try:
        return compare(args, sides)
    finally:
        for name, patterns in LINE_COUNTS.items():
            parent, change = (line_count(checkout, patterns) for checkout in sides.values())
            print(f"{name} lines: parent {parent}, change {change}, "
                  f"difference {change - parent:+d}")


def compare(args: argparse.Namespace, sides: dict[str, Path]) -> int:
    """Run and compare every workload and seed; the exit code of `main`."""
    found = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        for name in args.workloads:
            for seed in args.seeds:
                config = WORKLOADS[name].config(seed)
                got = {}
                base = Path(work) / f"{name}_{seed}"
                try:
                    for jobs in JOBS:
                        for side, checkout in sides.items():
                            out = Path(f"{base}_{side}_{jobs}")
                            run(checkout, config, jobs, out)
                            got[side, jobs] = outputs(out)
                    got["change", "report"] = rereport(
                        sides["change"], Path(f"{base}_change_1"), Path(f"{base}_change_report")
                    )
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 2
                pairs = [(f"--jobs {j}: change vs parent", ("change", j), ("parent", j),
                          ("change", "parent")) for j in JOBS]
                pairs.append(("change: --jobs 2 vs --jobs 1", ("change", 2), ("change", 1),
                              ("--jobs 2", "--jobs 1")))
                pairs.append(("change: report --in vs run", ("change", "report"), ("change", 1),
                              ("report --in", "run")))
                for label, a, b, names in pairs:
                    diff = differences(got[a], got[b])
                    found += bool(diff)
                    status = "same" if not diff else "DIFFER: " + ", ".join(diff)
                    print(f"{name} seed {seed} {label}: {len(got[a])} files {status}")
                    if "runs.jsonl" in diff and "runs.jsonl" in got[a] and "runs.jsonl" in got[b]:
                        for line in key_path_differences(
                            got[a]["runs.jsonl"], got[b]["runs.jsonl"], names
                        ):
                            print(f"  runs.jsonl {line}")
    print("all outputs identical" if not found else f"{found} comparisons differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
