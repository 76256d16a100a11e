import json
import shutil

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

    Every grid cell records its trace, in the pool as in one process, so
    neither report re-runs a cell. The replay is the oracle: with the
    `--jobs 1` run's trace files deleted, `report --in` re-runs the listed
    cells and must write the same files. Either run's timing.json must give
    the seconds of every cell in runs.jsonl."""

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
        shutil.rmtree(replayed / "traces")
        assert main(["report", "--in", str(replayed)]) == 0
        assert json.loads((replayed / "timing.json").read_text())["trace_replay_seconds"] > 0.0
        assert _output_files(replayed) == outputs[1]
        return outputs

    return run
