import json

import pytest

from hoardbench.cli import main


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

    The pool run always re-runs listed cells to record their traces. Pass
    `grid_records_traces=True` for a grid whose `--jobs 1` run records every
    listed trace itself, so that its report re-runs nothing. Either run's
    timing.json must give the seconds of every cell in runs.jsonl."""

    def run(document: dict, grid_records_traces: bool = False) -> dict:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        outputs = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--config", str(config), "--out", str(out), "--jobs", str(jobs)]) == 0
            outputs[jobs] = _output_files(out)
            timing = json.loads((out / "timing.json").read_text())
            replay_seconds = timing["trace_replay_seconds"]
            assert timing["report_seconds"] >= replay_seconds
            if jobs == 1 and grid_records_traces:
                assert replay_seconds == 0.0
            else:
                assert replay_seconds > 0.0
            runs = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
            timed = {
                (variant, seed): seconds
                for variant, by_seed in timing["cell_seconds"].items()
                for seed, seconds in by_seed.items()
            }
            assert sorted(timed) == sorted((r["variant"], str(r["seed"])) for r in runs)
            assert all(seconds > 0.0 for seconds in timed.values())
        return outputs

    return run
