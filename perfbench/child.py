"""One benchmark run process: a single `hoardbench run`, timed from inside.

    python3 perfbench/child.py RESULT_JSON plain|traced run --config C --out D --jobs N

`plain` wraps only `cli.run_grid` and `cli.write_report` with a timer each;
`traced` installs the layer spans of `tracing.py` (use `--jobs 1`, so every
cell runs in this process), removes them afterwards, and adds the per-layer
numbers. Either way RESULT_JSON receives the timings, the cell count, the
exit code of `hoardbench run`, the process's peak RSS and, for `--jobs 1`,
which runs pinned to one CPU, the run's CPU slowdown (see `speed.py`).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402


def _timed_phases(cli, phases: dict) -> list[tuple[str, object]]:
    """Wrap cli.run_grid and cli.write_report with one timer each."""
    originals = [("run_grid", cli.run_grid), ("write_report", cli.write_report)]

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            phases[key] = (start, time.perf_counter())
            if key == "run_grid":
                phases["cells"] = len(result.cells)
            return result
        return wrapper

    for key, fn in originals:
        setattr(cli, key, timed(key, fn))
    return originals


def run_plain(argv: list[str], sampler: speed.Sampler) -> dict:
    from hoardbench import cli

    phases: dict = {}
    originals = _timed_phases(cli, phases)
    try:
        start = time.perf_counter()
        rc = cli.main(argv)
        run_s = time.perf_counter() - start
    finally:
        for key, fn in originals:
            setattr(cli, key, fn)
    grid_start, grid_end = phases.get("run_grid", (0.0, 0.0))
    report_start, report_end = phases.get("write_report", (0.0, 0.0))
    return {
        "rc": rc,
        "run_s": run_s,
        "window": (start, start + run_s),
        "grid_s": grid_end - grid_start,
        "report_s": report_end - report_start,
        "cells": phases.get("cells", 0),
        "grid_slowdown": sampler.slowdown(grid_start, grid_end),
    }


def kappa_totals(runs_jsonl: Path) -> dict[str, float]:
    totals: dict[str, float] = {}
    with open(runs_jsonl) as fh:
        for line in fh:
            if line.strip():
                for source, units in json.loads(line)["kappa_by_source"].items():
                    totals[source] = totals.get(source, 0.0) + units
    return totals


def run_traced(argv: list[str]) -> dict:
    from hoardbench import cli

    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        start = time.perf_counter()
        rc = cli.main(argv)
        run_s = time.perf_counter() - start
    finally:
        tracing.uninstall(installation)
    out_dir = Path(argv[argv.index("--out") + 1])
    layers = tracing.layer_metrics(tracer, kappa_totals(out_dir / "runs.jsonl"), run_s)
    return {
        "rc": rc,
        "run_s": run_s,
        "window": (start, start + run_s),
        "grid_s": layers["harness.grid_s"],
        "report_s": layers["harness.report_s"],
        "cells": layers["harness.cells"],
        "layers": layers,
        "missing": installation.missing,
        "leftover": tracing.leftover_wrappers(),
    }


def main() -> int:
    result_path, mode, *argv = sys.argv[1:]
    pinned = argv[argv.index("--jobs") + 1] == "1"
    if pinned:
        speed.pin_to_one_cpu()
    with speed.Sampler() as sampler:
        result = run_traced(argv) if mode == "traced" else run_plain(argv, sampler)
    result["slowdown"] = sampler.slowdown(*result["window"]) if pinned else None
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
