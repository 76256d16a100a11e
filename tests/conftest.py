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
    (relative path -> bytes) and the resolved config less its output_dir."""

    def run(document: dict) -> dict:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        outputs = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--config", str(config), "--out", str(out), "--jobs", str(jobs)]) == 0
            outputs[jobs] = _output_files(out)
            timing = json.loads((out / "timing.json").read_text())
            assert timing["report_seconds"] >= timing["trace_replay_seconds"] > 0.0
        return outputs

    return run
