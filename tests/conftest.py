import hashlib
import json
import shutil

import pytest

from hoardbench import harness
from hoardbench.cli import main
from hoardbench.core.state import Trace
from hoardbench.harness import run_one


def _output_files(directory):
    files = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.name != "timing.json":
            files[str(path.relative_to(directory))] = path.read_bytes()
    doc = json.loads(files.pop("resolved_config.json"))
    doc.pop("output_dir")
    return files, doc


@pytest.fixture
def outputs_by_jobs(tmp_path):
    """Run a config document through `hoardbench run` with `--jobs 1` and
    `--jobs 2`. Returns, per job count, the output files except timing.json
    (relative path -> bytes) and the resolved config less its output_dir.

    Every grid cell records its trace, in the pool as in one process, so
    neither report re-runs a cell. The replay is the oracle: with the
    `--jobs 1` run's trace windows deleted, `report --in` re-runs every
    listed cell that gets a window and must write the same files. Either
    run's timing.json must give the seconds of every cell in runs.jsonl."""

    def run(document: dict) -> dict:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        outputs = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--config", str(config), "--out", str(out), "--jobs", str(jobs)]) == 0
            outputs[jobs] = _output_files(out)
            timing = json.loads((out / "timing.json").read_text())
            assert timing["trace_replay_seconds"] == 0.0
            assert 0.0 <= timing["trace_write_seconds"] <= timing["report_seconds"]
            runs = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
            timed = {
                (variant, seed): seconds
                for variant, by_seed in timing["cell_seconds"].items()
                for seed, seconds in by_seed.items()
            }
            assert sorted(timed) == sorted((r["variant"], str(r["seed"])) for r in runs)
            assert all(seconds > 0.0 for seconds in timed.values())
        replayed = tmp_path / "jobs1"
        windows = any(name.startswith("traces/") for name in outputs[1][0])
        shutil.rmtree(replayed / "traces", ignore_errors=True)
        assert main(["report", "--in", str(replayed)]) == 0
        replay_seconds = json.loads((replayed / "timing.json").read_text())["trace_replay_seconds"]
        assert (replay_seconds > 0.0) == windows
        assert _output_files(replayed) == outputs[1]
        return outputs

    return run


@pytest.fixture
def report_sha256():
    """sha256 of runs.jsonl, summary.csv, constraint_report.json,
    failures.md and every trace window a report wrote into a directory, by
    relative path."""

    def digests(out) -> dict[str, str]:
        names = ["runs.jsonl", "summary.csv", "constraint_report.json", "failures.md"] + sorted(
            path.relative_to(out).as_posix() for path in out.glob("traces/*/*.jsonl")
        )
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}

    return digests


@pytest.fixture
def replayed_sha256():
    """sha256 of a grid cell's whole trace, replayed through `run_one`. The
    cell is named as the report named its whole-trace file before it wrote
    windows: traces/<variant>/seed_<seed>.jsonl."""

    def digest(config, name: str) -> str:
        _, folder, file = name.split("/")
        seed = int(file.removeprefix("seed_").removesuffix(".jsonl"))
        (agent, value), = [
            (agent, value) for label, (_, agent, value) in harness._variant_table(config).items()
            if harness._safe(label) == folder
        ]
        trace = Trace()
        run_one(config, agent, seed, value, trace)
        return hashlib.sha256(trace.to_jsonl().encode()).hexdigest()

    return digest
